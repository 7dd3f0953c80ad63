//! Prints the GF kernel backend this process selects, including the SIMD
//! level, e.g. `simd(gfni)`, `simd(avx2)` or `table`. Honours
//! `PRLC_KERNEL` like every other entry point.
//!
//! ```bash
//! cargo run -p prlc-gf --example kernel_backend
//! ```

fn main() {
    println!("{}", prlc_gf::kernel::active_backend_description());
}
