//! The `GfKernel` slice-arithmetic layer: bulk [`axpy`], [`axpy_sum`],
//! [`scale_slice`], [`add_slice`], [`mul_slice`] and [`dot`] over
//! contiguous symbol slices, with a backend selected once per process.
//!
//! Every layer above this crate — matrix row operations, progressive
//! Gauss–Jordan, payload mirroring, encoding — expresses its inner loops
//! in terms of these six functions, so a backend improvement here
//! accelerates the whole stack. [`axpy_sum`] is the multi-term form of
//! [`axpy`]: a coded block's payload (Sec. 3.1) or a decoded payload's
//! mirrored row operations (Sec. 3.2) are built by it in one pass.
//!
//! # Backends
//!
//! * [`Backend::Scalar`] — the generic discrete-log/antilog loop. Works
//!   for every `GF(2^w)` and serves as the reference implementation the
//!   other backends are property-tested against (bit-identical output).
//! * [`Backend::Table`] — the 64 KiB product table for GF(2⁸): one load
//!   plus one XOR per byte. Fields other than GF(2⁸) fall back to the
//!   scalar loop.
//! * [`Backend::Simd`] — GF(2⁸) constant-by-slice multiplication at the
//!   best SIMD level the CPU offers, best first:
//!   * `gfni` (x86_64 with GFNI, AVX-512F and AVX-512BW): for a constant
//!     `c`, `x ↦ c·x` is a linear map over GF(2)⁸, so one
//!     `vgf2p8affineqb` with `c`'s 8×8 bit matrix multiplies 64 bytes at
//!     once, in any GF(2⁸) polynomial (ours is 0x11D). The matrix comes
//!     from a 256-entry `u64` table built once from the product table.
//!     Masked loads and stores finish the 1–63-byte remainder, so no
//!     product-table tail runs on this level.
//!   * `avx2`/`ssse3` on x86_64, `neon` on aarch64: the nibble-split
//!     shuffle technique. For a constant `c`, precompute two 16-entry
//!     tables `L[i] = c·i` and `H[i] = c·(i·16)`; then
//!     `c·b = L[b & 0xF] ^ H[b >> 4]` by linearity of the field product
//!     over XOR, evaluated 16/32 bytes at a time with byte-shuffle
//!     instructions (AVX2 finishes an odd 16-byte block with 128-bit
//!     shuffles, so at most 15 bytes take the product-table tail).
//!
//!   Products of two *variable* slices (`mul_slice`, `dot`) have no
//!   constant to build a matrix or shuffle tables from and run through
//!   the product table on every level.
//!
//!   On `gfni`, [`axpy_sum`] gathers up to 64 terms at a time and keeps
//!   a 1 KiB tile of `dst` in 16 zmm accumulators while each of them
//!   runs over it, so `dst` is loaded and stored once per tile and
//!   batch, not once per term. A `dst` shorter than one tile, the part
//!   past its last whole tile, and every other level run term by term.
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
//! CPU features are probed once per process into a best-first list of
//! SIMD levels; `simd` always runs the head of that list, and run headers
//! name it (e.g. `simd(gfni)`, `simd(avx2)`).
//!
//! Regardless of backend, [`add_slice`] on fields whose addition is a
//! plain XOR of the representation ([`GfElem::REPR_XOR`]) runs
//! word-at-a-time (u64 chunks) over the raw byte plane.
//!
//! The `*_with` variants ([`axpy_with`] etc.) force a specific backend —
//! they exist for the equivalence property tests and the
//! backend-comparison benchmarks; production code should use the
//! dispatched entry points.
//!
//! # Whole-block row kernel
//!
//! Selection resolves a [`RowKernel`]: the backend, the SIMD level and
//! the GF(2⁸) tables it reads, once. The dispatched entry points run on
//! the process's kernel, the `*_with` variants on one resolved per call.
//! A caller that holds a `RowKernel` — the progressive decoder does —
//! calls [`RowKernel::axpy`] and [`RowKernel::scale`] on slices that are
//! a whole number of [`BLOCK`]s, with no per-call dispatch. The caller
//! names the logical length of the operation, and the operand must be
//! zero past it, so the SIMD levels run every 64-byte vector with no
//! masked or product-table tail, the per-symbol backends stop at the
//! logical length, and the byte counters record that length alone.
//! Zero-padded dense coefficient rows (`prlc-linalg`'s `CoeffRow`) run
//! every elimination step through it.

use std::fmt;
use std::mem::size_of_val;
use std::sync::OnceLock;

use crate::element::{gf256_product_table, GfElem};
use crate::tables::Mul256Table;

/// A slice-arithmetic implementation strategy. See the [module
/// docs](self) for what each backend does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Generic discrete-log/antilog element loop (any `GF(2^w)`).
    Scalar,
    /// 64 KiB product-table byte loop (GF(2⁸); scalar elsewhere).
    Table,
    /// GF(2⁸) constant-by-slice kernels at the best detected SIMD level:
    /// GFNI affine on AVX-512, otherwise nibble-split shuffles. Product
    /// table for variable×variable products, scalar for other fields.
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
    Gfni,
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
            SimdLevel::Gfni => "gfni",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Ssse3 => "ssse3",
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => "neon",
        }
    }
}

/// The SIMD levels this CPU supports, best first, probed once per
/// process. [`select`] and the `*_with` entry points run the head; the
/// equivalence tests run every entry.
fn simd_levels() -> &'static [SimdLevel] {
    static LEVELS: OnceLock<Vec<SimdLevel>> = OnceLock::new();
    LEVELS.get_or_init(detect_simd_levels)
}

/// The best SIMD level this CPU supports, if any.
fn best_simd_level() -> Option<SimdLevel> {
    simd_levels().first().copied()
}

/// Runtime CPU feature detection for the SIMD kernels. Under Miri the
/// intrinsics are unsupported, so detection reports no SIMD and every
/// kernel path stays on the interpretable scalar/table implementations.
fn detect_simd_levels() -> Vec<SimdLevel> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        let gfni = std::is_x86_feature_detected!("gfni")
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw");
        [
            (SimdLevel::Gfni, gfni),
            (SimdLevel::Avx2, std::is_x86_feature_detected!("avx2")),
            (SimdLevel::Ssse3, std::is_x86_feature_detected!("ssse3")),
        ]
        .into_iter()
        .filter_map(|(level, supported)| supported.then_some(level))
        .collect()
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            vec![SimdLevel::Neon]
        } else {
            Vec::new()
        }
    }
    #[cfg(any(not(any(target_arch = "x86_64", target_arch = "aarch64")), miri))]
    {
        Vec::new()
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

fn select() -> &'static RowKernel {
    static ACTIVE: OnceLock<RowKernel> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let level = best_simd_level();
        let request = std::env::var("PRLC_KERNEL").ok();
        RowKernel::resolve(choose(request.as_deref(), level.is_some()), level)
    })
}

/// The backend chosen for this process (selected on first use; see the
/// [module docs](self) for the selection order).
pub fn active_backend() -> Backend {
    select().backend
}

/// Human-readable description of the active backend, including the SIMD
/// instruction set when relevant — e.g. `"simd(avx2)"` or `"table"`.
/// Used by run headers and benchmark metadata.
pub fn active_backend_description() -> String {
    select().description()
}

/// The backends this process can actually execute, in increasing order of
/// expected speed. [`Backend::Simd`] appears only when feature detection
/// succeeds. Benchmarks and equivalence tests iterate over this list.
pub fn available_backends() -> Vec<Backend> {
    let mut backends = vec![Backend::Scalar, Backend::Table];
    if best_simd_level().is_some() {
        backends.push(Backend::Simd);
    }
    backends
}

// ---------------------------------------------------------------------------
// Dispatched public entry points.
// ---------------------------------------------------------------------------

// Byte-volume accounting (`gf.<op>.bytes` counters) for the dispatched
// entry points: one key per op, whichever backend runs it (the backend
// is reported in `run_metadata.kernel_backend`). The byte count
// expression sits behind the `prlc_obs::enabled()` guard, so the
// disabled cost is a single relaxed atomic load per call.
macro_rules! record_bytes {
    ($op:literal, $bytes:expr) => {
        if prlc_obs::enabled() {
            prlc_obs::counter!(concat!("gf.", $op, ".bytes")).add($bytes as u64);
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
    let kernel = select();
    record_bytes!("axpy", size_of_val(src));
    axpy_impl(kernel, dst, c, src);
}

/// `dst[i] += Σ_k c_k·src_k[i]` for all `i`, over the `(c_k, src_k)`
/// terms: a coded block from its sources, or a payload from the row
/// operations its decoder recorded, built in one pass.
///
/// Bit-identical to one [`axpy`] per term and counted like it: each
/// term's length goes into `gf.axpy.bytes`. The `gfni` level
/// gathers the terms in batches on the stack and runs a whole batch
/// over one register tile of `dst` before storing it (see
/// [Backends](self#backends)); every other level and backend runs them
/// one by one. The terms are walked once and nothing is allocated.
///
/// # Panics
///
/// Panics if any source differs in length from `dst`.
pub fn axpy_sum<'a, F: GfElem>(dst: &mut [F], terms: impl IntoIterator<Item = (F, &'a [F])>) {
    let kernel = select();
    let bytes = axpy_sum_impl(kernel, dst, terms.into_iter());
    record_bytes!("axpy", bytes);
}

/// `dst[i] *= c` for all `i`.
pub fn scale_slice<F: GfElem>(dst: &mut [F], c: F) {
    let kernel = select();
    record_bytes!("scale", size_of_val(dst));
    scale_slice_impl(kernel, dst, c);
}

/// `dst[i] += src[i]` for all `i`. Backend-independent: fields with
/// XOR-representable addition always take the u64-chunked byte-plane
/// path.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_slice<F: GfElem>(dst: &mut [F], src: &[F]) {
    record_bytes!("add", size_of_val(src));
    add_slice_impl(dst, src);
}

/// Elementwise product `dst[i] *= src[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice<F: GfElem>(dst: &mut [F], src: &[F]) {
    let backend = select().backend;
    record_bytes!("mul", size_of_val(src));
    mul_slice_impl(backend, dst, src);
}

/// Dot product `sum_i a[i] * b[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<F: GfElem>(a: &[F], b: &[F]) -> F {
    let backend = select().backend;
    record_bytes!("dot", size_of_val(a));
    dot_impl(backend, a, b)
}

// ---------------------------------------------------------------------------
// Forced-backend entry points (equivalence tests and benchmarks).
// ---------------------------------------------------------------------------

/// [`axpy`] forced onto `backend`. A `Simd` request silently degrades to
/// `Table` when the hardware lacks the features (use
/// [`available_backends`] to avoid benchmarking the degraded path).
pub fn axpy_with<F: GfElem>(backend: Backend, dst: &mut [F], c: F, src: &[F]) {
    axpy_impl(&RowKernel::with(backend), dst, c, src);
}

/// [`axpy_sum`] forced onto `backend`, which degrades as in
/// [`axpy_with`]. Records no byte counts, like every `*_with` variant.
pub fn axpy_sum_with<'a, F: GfElem>(
    backend: Backend,
    dst: &mut [F],
    terms: impl IntoIterator<Item = (F, &'a [F])>,
) {
    axpy_sum_impl(&RowKernel::with(backend), dst, terms.into_iter());
}

/// [`scale_slice`] forced onto `backend`.
pub fn scale_slice_with<F: GfElem>(backend: Backend, dst: &mut [F], c: F) {
    scale_slice_impl(&RowKernel::with(backend), dst, c);
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
// The resolved kernel and its whole-block entry points.
// ---------------------------------------------------------------------------

/// Symbols per block of the [`RowKernel`] entry points: one 64-byte
/// AVX-512 vector of GF(2⁸) symbols, and a whole number of AVX2, SSSE3
/// and NEON vectors.
pub const BLOCK: usize = 64;

/// A kernel with its backend, SIMD level and tables resolved once. Its
/// [`axpy`](Self::axpy) and [`scale`](Self::scale) take a whole number
/// of [`BLOCK`]s; see the [module docs](self#whole-block-row-kernel).
#[derive(Clone, Copy)]
pub struct RowKernel {
    backend: Backend,
    /// The SIMD level; present exactly when `backend` is `Simd`.
    level: Option<SimdLevel>,
    table: &'static Mul256Table,
    #[cfg(target_arch = "x86_64")]
    matrices: &'static [u64; 256],
}

impl RowKernel {
    /// The kernel this process's dispatched entry points run (see
    /// [`active_backend`]).
    pub fn active() -> RowKernel {
        *select()
    }

    /// The kernel forced onto `backend`; a `Simd` request degrades to
    /// `Table` without hardware support.
    pub(crate) fn with(backend: Backend) -> RowKernel {
        RowKernel::resolve(backend, best_simd_level())
    }

    fn resolve(backend: Backend, level: Option<SimdLevel>) -> RowKernel {
        let (backend, level) = match (backend, level) {
            (Backend::Simd, Some(level)) => (Backend::Simd, Some(level)),
            (Backend::Simd, None) => (Backend::Table, None),
            (backend, _) => (backend, None),
        };
        RowKernel {
            backend,
            level,
            table: gf256_product_table(),
            #[cfg(target_arch = "x86_64")]
            matrices: simd::affine_matrices(),
        }
    }

    fn description(&self) -> String {
        match self.level {
            Some(level) => format!("simd({})", level.name()),
            None => self.backend.name().to_string(),
        }
    }

    /// `dst[i] += c * src[i]` for all `i`, where `src` is zero past its
    /// first `len` symbols, so only `dst[..len]` can change. The SIMD
    /// levels run every block; the per-symbol backends stop at `len`.
    /// Counts `len` symbols into `gf.axpy.bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are not a whole number of
    /// [`BLOCK`]s, or are shorter than `len`.
    #[inline]
    pub fn axpy<F: GfElem>(&self, dst: &mut [F], c: F, src: &[F], len: usize) {
        assert!(
            dst.len() == src.len() && dst.len().is_multiple_of(BLOCK) && len <= dst.len(),
            "row kernel slices must be equal whole blocks covering the logical length"
        );
        record_bytes!("axpy", size_of_val(&src[..len]));
        if let (Some(level), Some(d), Some(s)) =
            (self.level, plane::gf256_mut(dst), plane::gf256(src))
        {
            simd::axpy(self, level, d, s, c.index() as u8);
            return;
        }
        axpy_impl(self, &mut dst[..len], c, &src[..len]);
    }

    /// `dst[i] *= c` for all `i`, where `dst` is zero past its first
    /// `len` symbols. Runs and counts (into `gf.scale.bytes`)
    /// as [`axpy`](Self::axpy) does.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a whole number of [`BLOCK`]s or is shorter
    /// than `len`.
    #[inline]
    pub fn scale<F: GfElem>(&self, dst: &mut [F], c: F, len: usize) {
        assert!(
            dst.len().is_multiple_of(BLOCK) && len <= dst.len(),
            "row kernel slice must be whole blocks covering the logical length"
        );
        record_bytes!("scale", size_of_val(&dst[..len]));
        if let (Some(level), Some(d)) = (self.level, plane::gf256_mut(dst)) {
            simd::scale(self, level, d, c.index() as u8);
            return;
        }
        scale_slice_impl(self, &mut dst[..len], c);
    }
}

impl fmt::Debug for RowKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RowKernel")
            .field(&self.description())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Implementations.
// ---------------------------------------------------------------------------

fn axpy_impl<F: GfElem>(kernel: &RowKernel, dst: &mut [F], c: F, src: &[F]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    if c.is_zero() {
        return;
    }
    if c == F::ONE {
        add_slice_impl(dst, src);
        return;
    }
    if kernel.backend != Backend::Scalar {
        if let (Some(s), Some(d)) = (plane::gf256(src), plane::gf256_mut(dst)) {
            gf256_axpy_bytes(kernel, d, c.index() as u8, s);
            return;
        }
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.gf_add(c.gf_mul(*s));
    }
}

/// Runs [`axpy_sum`] on `kernel` and returns the bytes of its terms:
/// fused on `gfni` for a GF(2⁸) `dst` of at least one tile, term by
/// term everywhere else.
fn axpy_sum_impl<'a, F: GfElem>(
    kernel: &RowKernel,
    dst: &mut [F],
    terms: impl Iterator<Item = (F, &'a [F])>,
) -> usize {
    // The length test stays inside the `if let`: written before it, as
    // `level == Some(Gfni) && len >= tile`, the same gate measured 10%
    // slower on whole encode/decode runs, from code generation alone.
    #[cfg(target_arch = "x86_64")]
    if let (Some(SimdLevel::Gfni), Some(dst)) = (kernel.level, plane::gf256_mut(dst)) {
        if dst.len() >= simd::GFNI_TILE {
            return axpy_sum_batched(kernel, dst, terms);
        }
    }
    let mut bytes = 0;
    for (c, src) in terms {
        axpy_impl(kernel, dst, c, src);
        bytes += size_of_val(src);
    }
    bytes
}

/// Terms [`axpy_sum`] gathers before running them over `dst` on `gfni`:
/// each register tile of `dst` is loaded and stored once per batch.
#[cfg(target_arch = "x86_64")]
const TERM_BATCH: usize = 64;

/// [`axpy_sum_impl`] on the `gfni` level of `kernel`, over a GF(2⁸)
/// `dst`: the non-zero terms go to the fused kernel in batches gathered
/// on the stack.
#[cfg(target_arch = "x86_64")]
fn axpy_sum_batched<'a, F: GfElem>(
    kernel: &RowKernel,
    dst: &mut [u8],
    terms: impl Iterator<Item = (F, &'a [F])>,
) -> usize {
    let mut bytes = 0;
    let mut batch: [(u8, &[u8]); TERM_BATCH] = [(0, &[]); TERM_BATCH];
    let mut held = 0;
    for (c, src) in terms {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        bytes += size_of_val(src);
        // `dst` is GF(2⁸), so every source is too and has a plane.
        if let (false, Some(src)) = (c.is_zero(), plane::gf256(src)) {
            batch[held] = (c.index() as u8, src);
            held += 1;
        }
        if held == TERM_BATCH {
            simd::axpy_sum_gfni(kernel, dst, &batch);
            held = 0;
        }
    }
    simd::axpy_sum_gfni(kernel, dst, &batch[..held]);
    bytes
}

fn scale_slice_impl<F: GfElem>(kernel: &RowKernel, dst: &mut [F], c: F) {
    if c == F::ONE {
        return;
    }
    if kernel.backend != Backend::Scalar && !c.is_zero() {
        if let Some(d) = plane::gf256_mut(dst) {
            gf256_scale_bytes(kernel, d, c.index() as u8);
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

/// GF(2⁸) byte-plane `dst ^= c·src` on `kernel`'s SIMD level, or
/// through its product table.
fn gf256_axpy_bytes(kernel: &RowKernel, dst: &mut [u8], c: u8, src: &[u8]) {
    if let Some(level) = kernel.level {
        simd::axpy(kernel, level, dst, src, c);
        return;
    }
    let row = kernel.table.row(c);
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// GF(2⁸) byte-plane `dst = c·dst`, as [`gf256_axpy_bytes`].
fn gf256_scale_bytes(kernel: &RowKernel, dst: &mut [u8], c: u8) {
    if let Some(level) = kernel.level {
        simd::scale(kernel, level, dst, c);
        return;
    }
    let row = kernel.table.row(c);
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
// SIMD kernels (GFNI affine and nibble-split shuffle).
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[allow(unsafe_code)]
mod simd {
    use super::{RowKernel, SimdLevel};
    #[cfg(target_arch = "x86_64")]
    use crate::element::gf256_product_table;
    use crate::tables::Mul256Table;

    /// The `GF2P8AFFINEQB` bit matrix of `x ↦ c·x` for every `c`, built
    /// once from the product table. Byte `7−i` of a matrix holds bit `i`
    /// of `c·2^j` at bit position `j`, so the instruction's output bit
    /// `i` — the parity of byte `7−i` ANDed with `x` — is bit `i` of
    /// `Σ_j x_j·(c·2^j) = c·x`.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn affine_matrices() -> &'static [u64; 256] {
        static MATRICES: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
        MATRICES.get_or_init(|| {
            let table = gf256_product_table();
            std::array::from_fn(|c| {
                let row = table.row(c as u8);
                let mut matrix = 0u64;
                for j in 0..8 {
                    let column = row[1 << j];
                    for i in 0..8 {
                        matrix |= u64::from(column >> i & 1) << (8 * (7 - i) + j);
                    }
                }
                matrix
            })
        })
    }

    /// The two 16-entry shuffle tables for multiplication by the constant
    /// `c`: `lo[i] = c·i`, `hi[i] = c·(i·16)`. Both are contiguous 16-byte
    /// runs of product rows: `lo` heads the row of `c`, and since
    /// `c·(16·i) = (c·16)·i`, `hi` heads the row of `c·16`.
    pub(super) fn nibble_tables(table: &Mul256Table, c: u8) -> ([u8; 16], [u8; 16]) {
        let row = table.row(c);
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        lo.copy_from_slice(&row[..16]);
        hi.copy_from_slice(&table.row(row[16])[..16]);
        (lo, hi)
    }

    /// `dst ^= c·src` with the tables `kernel` resolved: the whole slice
    /// on `gfni`, its last 1–63 bytes masked; otherwise the
    /// 16-byte-aligned prefix, with a product-table tail of at most 15
    /// bytes. A whole number of 64-byte blocks runs no tail on any level.
    #[inline]
    pub(super) fn axpy(kernel: &RowKernel, level: SimdLevel, dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: `level` came from runtime feature detection, so the
        // matching instruction set is available on this CPU.
        unsafe {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Gfni => x86::axpy_gfni(dst, src, kernel.matrices[usize::from(c)]),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => nibble_axpy(kernel.table, dst, src, c, |d, s, lo, hi| {
                    x86::axpy_avx2(d, s, lo, hi)
                }),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Ssse3 => nibble_axpy(kernel.table, dst, src, c, |d, s, lo, hi| {
                    x86::axpy_ssse3(d, s, lo, hi)
                }),
                #[cfg(target_arch = "aarch64")]
                SimdLevel::Neon => nibble_axpy(kernel.table, dst, src, c, |d, s, lo, hi| {
                    arm::axpy_neon(d, s, lo, hi)
                }),
            }
        }
    }

    /// `dst = c·dst`, split across levels as in [`axpy`].
    #[inline]
    pub(super) fn scale(kernel: &RowKernel, level: SimdLevel, dst: &mut [u8], c: u8) {
        // SAFETY: as in `axpy`.
        unsafe {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Gfni => x86::scale_gfni(dst, kernel.matrices[usize::from(c)]),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => {
                    nibble_scale(kernel.table, dst, c, |d, lo, hi| x86::scale_avx2(d, lo, hi))
                }
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Ssse3 => nibble_scale(kernel.table, dst, c, |d, lo, hi| {
                    x86::scale_ssse3(d, lo, hi)
                }),
                #[cfg(target_arch = "aarch64")]
                SimdLevel::Neon => {
                    nibble_scale(kernel.table, dst, c, |d, lo, hi| arm::scale_neon(d, lo, hi))
                }
            }
        }
    }

    /// Bytes of `dst` the `gfni` [`axpy_sum_gfni`] holds in 16 zmm
    /// accumulators.
    #[cfg(target_arch = "x86_64")]
    pub(super) const GFNI_TILE: usize = 16 * 64;

    /// `dst ^= Σ c·src` on `gfni` over the `(c, src)` terms, none of
    /// which has a zero `c`: every whole register tile of `dst` runs all
    /// the terms before it is stored (see the [module
    /// docs](super#backends)), and the rest runs term by term. `kernel`
    /// must be at the `gfni` level.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn axpy_sum_gfni(kernel: &RowKernel, dst: &mut [u8], terms: &[(u8, &[u8])]) {
        debug_assert_eq!(kernel.level, Some(SimdLevel::Gfni));
        if terms.is_empty() {
            return;
        }
        let tiled = dst.len() - dst.len() % GFNI_TILE;
        let (body, rest) = dst.split_at_mut(tiled);
        // SAFETY: a kernel at the `gfni` level exists only after runtime
        // feature detection found GFNI, AVX-512F and AVX-512BW, and
        // `body` is a whole number of tiles.
        unsafe { x86::axpy_sum_gfni(body, terms, kernel.matrices) };
        if !rest.is_empty() {
            for &(c, src) in terms {
                axpy(kernel, SimdLevel::Gfni, rest, &src[tiled..], c);
            }
        }
    }

    /// Runs a nibble-shuffle axpy `kernel` over the 16-byte-aligned
    /// prefix, then the product table over the tail of at most 15 bytes.
    #[inline(always)]
    fn nibble_axpy(
        table: &Mul256Table,
        dst: &mut [u8],
        src: &[u8],
        c: u8,
        kernel: impl FnOnce(&mut [u8], &[u8], &[u8; 16], &[u8; 16]),
    ) {
        let (lo, hi) = nibble_tables(table, c);
        let n = dst.len() - dst.len() % 16;
        kernel(&mut dst[..n], &src[..n], &lo, &hi);
        let row = table.row(c);
        for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
            *d ^= row[*s as usize];
        }
    }

    /// The scale counterpart of [`nibble_axpy`].
    #[inline(always)]
    fn nibble_scale(
        table: &Mul256Table,
        dst: &mut [u8],
        c: u8,
        kernel: impl FnOnce(&mut [u8], &[u8; 16], &[u8; 16]),
    ) {
        let (lo, hi) = nibble_tables(table, c);
        let n = dst.len() - dst.len() % 16;
        kernel(&mut dst[..n], &lo, &hi);
        let row = table.row(c);
        for d in dst[n..].iter_mut() {
            *d = row[*d as usize];
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use std::arch::x86_64::*;

        use super::GFNI_TILE;

        /// Mask selecting the low `len` (1..=63) bytes of a 64-byte vector.
        #[inline(always)]
        fn tail_mask(len: usize) -> __mmask64 {
            debug_assert!((1..64).contains(&len));
            u64::MAX >> (64 - len)
        }

        // SAFETY: caller must verify GFNI, AVX-512F and AVX-512BW support and
        // pass slices of equal length; masked loads/stores stay in bounds.
        #[target_feature(enable = "gfni,avx512f,avx512bw")]
        pub(super) unsafe fn axpy_gfni(dst: &mut [u8], src: &[u8], matrix: u64) {
            debug_assert_eq!(dst.len(), src.len());
            let a = _mm512_set1_epi64(matrix as i64);
            let n = dst.len() - dst.len() % 64;
            for i in (0..n).step_by(64) {
                let s = _mm512_loadu_si512(src.as_ptr().add(i).cast());
                let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, a);
                _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), _mm512_xor_si512(d, prod));
            }
            if n < dst.len() {
                // Masked-off lanes are neither read nor written, so no byte
                // past the end of either slice is touched.
                let k = tail_mask(dst.len() - n);
                let s = _mm512_maskz_loadu_epi8(k, src.as_ptr().add(n).cast());
                let d = _mm512_maskz_loadu_epi8(k, dst.as_ptr().add(n).cast());
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, a);
                _mm512_mask_storeu_epi8(
                    dst.as_mut_ptr().add(n).cast(),
                    k,
                    _mm512_xor_si512(d, prod),
                );
            }
        }

        // SAFETY: caller must verify GFNI, AVX-512F and AVX-512BW support;
        // masked loads/stores stay in bounds.
        #[target_feature(enable = "gfni,avx512f,avx512bw")]
        pub(super) unsafe fn scale_gfni(dst: &mut [u8], matrix: u64) {
            let a = _mm512_set1_epi64(matrix as i64);
            let n = dst.len() - dst.len() % 64;
            for i in (0..n).step_by(64) {
                let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(d, a);
                _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), prod);
            }
            if n < dst.len() {
                let k = tail_mask(dst.len() - n);
                let d = _mm512_maskz_loadu_epi8(k, dst.as_ptr().add(n).cast());
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(d, a);
                _mm512_mask_storeu_epi8(dst.as_mut_ptr().add(n).cast(), k, prod);
            }
        }

        // Each source is cut to `dst`'s length by a checked slice, so
        // every load and store stays in bounds.
        //
        // SAFETY: caller must verify GFNI, AVX-512F and AVX-512BW support
        // and pass a whole number of tiles.
        #[target_feature(enable = "gfni,avx512f,avx512bw")]
        pub(super) unsafe fn axpy_sum_gfni(
            dst: &mut [u8],
            terms: &[(u8, &[u8])],
            matrices: &[u64; 256],
        ) {
            let n = dst.len();
            debug_assert_eq!(n % GFNI_TILE, 0);
            for t in (0..n).step_by(GFNI_TILE) {
                let tile = dst.as_mut_ptr().add(t);
                let mut acc = [_mm512_setzero_si512(); GFNI_TILE / 64];
                for (v, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_loadu_si512(tile.add(64 * v).cast());
                }
                for &(c, src) in terms {
                    let src = src[..n].as_ptr().add(t);
                    let m = _mm512_set1_epi64(matrices[usize::from(c)] as i64);
                    for (v, a) in acc.iter_mut().enumerate() {
                        let s = _mm512_loadu_si512(src.add(64 * v).cast());
                        *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(s, m));
                    }
                }
                for (v, a) in acc.iter().enumerate() {
                    _mm512_storeu_si512(tile.add(64 * v).cast(), *a);
                }
            }
        }

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
    use super::{RowKernel, SimdLevel};

    pub(super) fn axpy(_: &RowKernel, level: SimdLevel, _: &mut [u8], _: &[u8], _: u8) {
        match level {}
    }

    pub(super) fn scale(_: &RowKernel, level: SimdLevel, _: &mut [u8], _: u8) {
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

    /// Every byte-plane kernel this CPU can run — the table backend and
    /// each detected SIMD level, not only the one `select()` runs —
    /// against the scalar reference. Lengths straddle the 16/32/64-byte
    /// vector widths, and sub-slices at odd offsets put the vector body,
    /// the tails and the masked GFNI remainder on unaligned addresses,
    /// with dst and src misaligned differently. The operated-on window
    /// sits inside a larger buffer, so a write past either end of the
    /// slice also fails the comparison.
    #[test]
    fn misaligned_subslices_match_scalar() {
        let levels = simd_levels()
            .iter()
            .map(|&level| (Backend::Simd, Some(level)));
        let kernels = std::iter::once((Backend::Table, None)).chain(levels);
        let mut rng = StdRng::seed_from_u64(9);
        for &n in LENGTHS.iter().chain(&[65, 127, 128, 129, 4096]) {
            for (doff, soff) in [(0, 0), (1, 0), (3, 5), (7, 2), (15, 9), (63, 33)] {
                let src: Vec<Gf256> = random_slice(&mut rng, n + soff);
                let base: Vec<Gf256> = random_slice(&mut rng, n + doff + 64);
                let c = Gf256::random(&mut rng);
                let (window, src) = (doff..doff + n, &src[soff..]);
                let mut axpy_want = base.clone();
                axpy_with(Backend::Scalar, &mut axpy_want[window.clone()], c, src);
                let mut scale_want = base.clone();
                scale_slice_with(Backend::Scalar, &mut scale_want[window.clone()], c);
                for (backend, level) in kernels.clone() {
                    let kernel = RowKernel::resolve(backend, level);
                    let mut got = base.clone();
                    axpy_impl(&kernel, &mut got[window.clone()], c, src);
                    assert_eq!(
                        got, axpy_want,
                        "axpy {kernel:?} n={n} offsets=({doff},{soff})"
                    );
                    let mut got = base.clone();
                    scale_slice_impl(&kernel, &mut got[window.clone()], c);
                    assert_eq!(
                        got, scale_want,
                        "scale_slice {kernel:?} n={n} offset={doff}"
                    );
                }
            }
        }
    }

    /// A kernel at every level this CPU can run: scalar, table and each
    /// detected SIMD level, not only the one `select()` runs.
    fn every_level() -> Vec<RowKernel> {
        let levels = simd_levels()
            .iter()
            .map(|&level| RowKernel::resolve(Backend::Simd, Some(level)));
        [Backend::Scalar, Backend::Table]
            .into_iter()
            .map(|backend| RowKernel::resolve(backend, None))
            .chain(levels)
            .collect()
    }

    /// `axpy_sum` at every level (fused on `gfni`) against the sequential
    /// `axpy_with` loop on the scalar backend, for every length in
    /// `LENGTHS` plus both sides of a 1 KiB GFNI tile and a 4 KiB block,
    /// and 0, 1, 2, 17, 64 (one whole batch) and 100 terms. A quarter of
    /// the coefficients are 0 and a quarter 1. Each source starts at its
    /// own offset, and `dst` is a window inside a larger buffer, so a
    /// write past either end fails the comparison.
    fn check_axpy_sum_matches_sequential_axpy<F: GfElem>(seed: u64, kernels: &[RowKernel]) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &n in LENGTHS.iter().chain(&[1023, 1024, 1025, 4096]) {
            for count in [0, 1, 2, 17, 64, 100] {
                let sources: Vec<Vec<F>> = (0..count)
                    .map(|_| {
                        let offset: usize = rng.gen_range(0..64);
                        random_slice(&mut rng, n + offset)
                    })
                    .collect();
                let terms: Vec<(F, &[F])> = sources
                    .iter()
                    .map(|s| {
                        let c = match rng.gen_range(0..4) {
                            0 => F::ZERO,
                            1 => F::ONE,
                            _ => F::random(&mut rng),
                        };
                        (c, &s[s.len() - n..])
                    })
                    .collect();
                let doff: usize = rng.gen_range(0..64);
                let window = doff..doff + n;
                let base: Vec<F> = random_slice(&mut rng, n + doff + 64);
                let mut want = base.clone();
                for &(c, src) in &terms {
                    axpy_with(Backend::Scalar, &mut want[window.clone()], c, src);
                }
                for kernel in kernels {
                    let mut got = base.clone();
                    axpy_sum_impl(kernel, &mut got[window.clone()], terms.iter().copied());
                    assert_eq!(got, want, "axpy_sum {kernel:?} n={n} terms={count}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        #[test]
        fn axpy_sum_matches_sequential_axpy_at_every_level(seed in 0u64..u64::MAX) {
            check_axpy_sum_matches_sequential_axpy::<Gf256>(seed, &every_level());
            // The other fields have no SIMD plane: every backend runs
            // their terms one by one.
            let kernels: Vec<RowKernel> = available_backends()
                .into_iter()
                .map(RowKernel::with)
                .collect();
            check_axpy_sum_matches_sequential_axpy::<Gf16>(seed, &kernels);
            check_axpy_sum_matches_sequential_axpy::<Gf64k>(seed, &kernels);
        }
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_sum_length_mismatch_panics() {
        let mut d = vec![Gf256::ZERO; 3];
        let (good, bad) = ([Gf256::ONE; 3], [Gf256::ONE; 4]);
        axpy_sum(&mut d, [(Gf256::ONE, &good[..]), (Gf256::ONE, &bad[..])]);
    }

    /// The row kernel at every level this CPU can run — scalar, table and
    /// each detected SIMD level — against the scalar slice kernel on the
    /// logical prefix. The blocks sit at odd offsets inside larger
    /// buffers, `dst` holds nonzero values past the prefix that axpy must
    /// keep, and a write past the last block fails the comparison.
    #[test]
    fn row_kernel_matches_scalar_at_every_level() {
        let kernels = every_level();
        let mut rng = StdRng::seed_from_u64(10);
        for len in [
            0usize, 1, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129, 200, 500,
        ] {
            for blocks in [len.div_ceil(BLOCK), len.div_ceil(BLOCK) + 1] {
                let n = blocks * BLOCK;
                let (doff, soff) = (rng.gen_range(0..64), rng.gen_range(0..64));
                let mut src: Vec<Gf256> = random_slice(&mut rng, n + soff);
                src[soff + len..].fill(Gf256::ZERO);
                let base: Vec<Gf256> = random_slice(&mut rng, n + doff + 64);
                let mut row = base.clone();
                row[doff + len..doff + n].fill(Gf256::ZERO);
                let c = Gf256::random(&mut rng);
                let (window, src) = (doff..doff + n, &src[soff..]);
                let mut axpy_want = base.clone();
                axpy_with(
                    Backend::Scalar,
                    &mut axpy_want[doff..doff + len],
                    c,
                    &src[..len],
                );
                let mut scale_want = row.clone();
                scale_slice_with(Backend::Scalar, &mut scale_want[doff..doff + len], c);
                for kernel in &kernels {
                    let mut got = base.clone();
                    kernel.axpy(&mut got[window.clone()], c, src, len);
                    assert_eq!(got, axpy_want, "axpy {kernel:?} len={len} blocks={blocks}");
                    let mut got = row.clone();
                    kernel.scale(&mut got[window.clone()], c, len);
                    assert_eq!(
                        got, scale_want,
                        "scale {kernel:?} len={len} blocks={blocks}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn row_kernel_rejects_a_partial_block() {
        let mut d = vec![Gf256::ZERO; BLOCK + 1];
        RowKernel::active().axpy(&mut d, Gf256::ONE, &[Gf256::ZERO; BLOCK + 1], 1);
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn nibble_tables_equal_strided_construction() {
        let table = gf256_product_table();
        for c in 0..=255u8 {
            let row = table.row(c);
            let (lo, hi) = simd::nibble_tables(table, c);
            for i in 0..16 {
                assert_eq!(lo[i], row[i], "lo c={c} i={i}");
                assert_eq!(hi[i], row[i << 4], "hi c={c} i={i}");
            }
        }
    }

    /// A pure-Rust model of `GF2P8AFFINEQB` on one byte with a zero
    /// immediate: output bit `i` is the parity of `x` ANDed with byte
    /// `7−i` of the matrix.
    #[cfg(target_arch = "x86_64")]
    fn gf2p8affine_model(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0u8, |out, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            out | (((row & x).count_ones() & 1) as u8) << i
        })
    }

    /// Every `(c, x)` pair: the affine matrix of `c` maps `x` to `c·x`.
    /// No intrinsics, so this also runs under Miri.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn affine_matrices_multiply_every_pair() {
        let table = gf256_product_table();
        for c in 0..=255u8 {
            let matrix = simd::affine_matrices()[usize::from(c)];
            let row = table.row(c);
            for x in 0..=255u8 {
                assert_eq!(
                    gf2p8affine_model(matrix, x),
                    row[usize::from(x)],
                    "c={c} x={x}"
                );
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
