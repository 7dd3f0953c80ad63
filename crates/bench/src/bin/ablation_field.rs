//! Ablation A3 — field-size sensitivity (DESIGN.md).
//!
//! The paper assumes "a sufficiently large Galois field such as GF(2^8)"
//! (footnote 1). Smaller fields make random rows collide (linearly
//! dependent) more often, inflating the number of coded blocks needed.
//! This ablation measures the decoding overhead — blocks processed until
//! completion, divided by `N` — for GF(2⁴), GF(2⁸) and GF(2¹⁶), against
//! the analytical redundancy bound `1/∏(1 − q^{-i})`.

use prlc_bench::RunOpts;
use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme,
};
use prlc_gf::{Gf16, Gf256, Gf64k, GfElem};
use prlc_sim::{fmt_f, run_parallel, summarize, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn overhead<F: GfElem>(profile: &PriorityProfile, runs: usize, seed: u64) -> (f64, f64) {
    let n = profile.total_blocks();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    let samples = run_parallel(runs, seed, |s| {
        let mut rng = StdRng::seed_from_u64(s);
        let enc = Encoder::new(Scheme::Plc, profile.clone());
        let mut dec: PlcDecoder<F, ()> = PlcDecoder::coefficients_only(profile.clone());
        let mut processed = 0usize;
        while !dec.is_complete() {
            let level = dist.sample_level(&mut rng);
            dec.insert_block(&enc.encode_unpayloaded::<F, _>(level, &mut rng));
            processed += 1;
            assert!(processed < 100 * n, "decode failed to converge");
        }
        processed as f64 / n as f64
    });
    let s = summarize(&samples);
    (s.mean, s.ci95)
}

fn main() {
    let opts = RunOpts::from_args();
    let profile = if opts.quick {
        PriorityProfile::flat(20).expect("valid")
    } else {
        PriorityProfile::flat(200).expect("valid")
    };
    let n = profile.total_blocks();

    let mut table = Table::new([
        "field",
        "measured overhead M*/N",
        "ci95",
        "analytic E[M*]/N (uniform rows)",
    ]);
    // Analytic column: collecting uniformly random q-ary rows, the
    // expected draws to reach rank N are
    //   E[M*] = sum_{r=0}^{N-1} 1 / (1 - q^{r-N})
    //         = N + sum_{k=1}^{N} q^{-k} / (1 - q^{-k}),
    // an upper bound here because SLC/PLC coefficients are nonzero
    // within their support, which only helps.
    let expected_overhead = |q: f64| -> f64 {
        let extra: f64 = (1..=n)
            .map(|k| {
                let qk = q.powi(-(k as i32));
                qk / (1.0 - qk)
            })
            .sum();
        (n as f64 + extra) / n as f64
    };
    type Overhead = fn(&PriorityProfile, usize, u64) -> (f64, f64);
    let rows: [(&str, f64, Overhead); 3] = [
        ("GF(2^4)", 16.0, overhead::<Gf16>),
        ("GF(2^8)", 256.0, overhead::<Gf256>),
        ("GF(2^16)", 65536.0, overhead::<Gf64k>),
    ];
    for (name, q, f) in rows {
        eprintln!("[ablation_field] {name} ...");
        let (mean, ci) = f(&profile, opts.runs, opts.seed);
        table.push_row([
            name.to_string(),
            fmt_f(mean, 5),
            fmt_f(ci, 5),
            fmt_f(expected_overhead(q), 5),
        ]);
    }
    opts.emit(
        "ablation_field",
        &format!("Ablation A3: decoding overhead vs field size (N={n}, RLC-shaped PLC)"),
        &table,
    );
}
