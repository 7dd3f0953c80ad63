//! Designing a priority distribution: the Sec. 3.4 feasibility workflow.
//!
//! Given application decoding constraints — "the first level must be
//! recoverable from 125 random blocks, the first two from 205" — search
//! for a priority distribution satisfying them (plus the full-recovery
//! constraint), then validate the designed distribution with both the
//! analytical curve and a real simulated decode.
//!
//! ```text
//! cargo run --release --example design_distribution
//! ```

use prlc::prelude::*;
use prlc::sim::fmt_f;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 200 source blocks: 20 critical / 60 normal / 120 bulk.
    let profile = PriorityProfile::new(vec![20, 60, 120])?;
    let problem = FeasibilityProblem {
        scheme: Scheme::Plc,
        profile: profile.clone(),
        constraints: vec![
            DecodingConstraint::new(125, 1.0),
            DecodingConstraint::new(205, 2.0),
        ],
        full_recovery: Some(FullRecoveryConstraint {
            alpha: 2.0,
            epsilon: 0.01,
        }),
        options: AnalysisOptions::sharp(),
        tolerance: 0.0,
    };

    println!("constraints:");
    for c in &problem.constraints {
        println!("  E(X_{{{}}}) >= {}", c.blocks, c.min_levels);
    }
    println!("  Pr(X_{{400}} = 3) > 0.99");

    let solution = solve_feasibility(&problem);
    println!(
        "\nsolver: feasible = {}, {} evaluations, residual penalty {:.2e}",
        solution.feasible, solution.evaluations, solution.penalty
    );
    let dist = &solution.distribution;
    println!(
        "designed priority distribution: p = [{}, {}, {}]",
        fmt_f(dist.p(0), 4),
        fmt_f(dist.p(1), 4),
        fmt_f(dist.p(2), 4)
    );

    println!("\nconstraint check at the designed distribution:");
    for check in problem.check(dist) {
        println!(
            "  {}: achieved {} (required {}) -> {}",
            check.description,
            fmt_f(check.achieved, 4),
            fmt_f(check.required, 4),
            if check.satisfied { "ok" } else { "VIOLATED" }
        );
    }

    // Analytical decoding curve of the design.
    println!("\nanalytical decoding curve:");
    let opts = AnalysisOptions::sharp();
    for m in (0..=400).step_by(50) {
        let e = curves::expected_levels(Scheme::Plc, &profile, dist, m, &opts);
        println!("  M = {m:3}: E(X) = {}", fmt_f(e, 3));
    }

    // Validate by simulation with the real decoder.
    let curve = simulate_decoding_curve::<Gf256>(&CurveConfig {
        persistence: Persistence::Coding(Scheme::Plc),
        profile,
        distribution: dist.clone(),
        max_blocks: 400,
        runs: 40,
        seed: 99,
    });
    println!("\nsimulated decoding curve (40 runs, 95% CI):");
    for m in (0..=400).step_by(50) {
        let s = curve.summaries[m];
        println!("  M = {m:3}: {} ± {}", fmt_f(s.mean, 3), fmt_f(s.ci95, 3));
    }
    for c in &problem.constraints {
        let s = curve.summaries[c.blocks];
        println!(
            "simulated E(X_{{{}}}) = {} (constraint {})",
            c.blocks,
            fmt_f(s.mean, 3),
            c.min_levels
        );
    }
    Ok(())
}
