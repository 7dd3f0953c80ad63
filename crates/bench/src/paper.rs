//! The paper's own artifacts: the worked examples of Figs. 1 and 2, the
//! decoding curves of Figs. 4–6 (Secs. 5.1–5.2), and Table 1 with the
//! curves it yields in Fig. 7 (Sec. 5.3).

use prlc_analysis::{
    curves, solve_feasibility, AnalysisOptions, FeasibilityProblem, FullRecoveryConstraint,
};
use prlc_core::{DecodingConstraint, Encoder, PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::{Gf256, GfElem};
use prlc_linalg::{rref, Matrix, ProgressiveRref};
use prlc_sim::{fmt_f, simulate_decoding_curve, CurveConfig, DecodingCurve, Persistence, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    paper_table1_distributions, sample_points, table1_profile, Csv, RunOpts, PAPER_TABLE1,
};

/// Figures 1 and 2 — the paper's worked examples, executed live over
/// GF(2⁸) and printed; they produce no CSV.
///
/// Fig. 1 shows the coefficient-matrix shapes of RLC, SLC and PLC for
/// three source blocks in two levels ({x1} critical, {x2, x3} bulk).
/// Fig. 2 shows partial decoding via Gauss–Jordan elimination: five
/// coded blocks over six unknowns whose RREF pins down exactly the first
/// three.
pub(crate) fn fig1_fig2(_: &RunOpts) -> Vec<Csv> {
    let mut rng = StdRng::seed_from_u64(1907); // ICDCS 2007 vintage

    println!("== Fig. 1: coefficient matrices (3 blocks, levels {{x1}} | {{x2,x3}}) ==");
    let profile = PriorityProfile::new(vec![1, 2]).expect("valid profile");
    for scheme in [Scheme::Rlc, Scheme::Slc, Scheme::Plc] {
        let enc = Encoder::new(scheme, profile.clone());
        // One coded block per level (RLC: every row full-support).
        let levels = match scheme {
            Scheme::Rlc => [0, 0, 0],
            _ => [0, 1, 1],
        };
        let rows: Vec<Vec<Gf256>> = levels
            .iter()
            .map(|&level| enc.encode_coefficients(level, &mut rng).to_dense_vec())
            .collect();
        println!("\n({scheme})\n{:?}", Matrix::from_rows(rows));
    }

    println!("\n== Fig. 2: Gauss-Jordan partial decoding (5 rows, 6 unknowns) ==");
    // Rows shaped like the figure: one touching x1 only, two touching
    // x1..x3, two touching everything.
    let supports = [1, 3, 3, 6, 6];
    let rows: Vec<Vec<Gf256>> = supports
        .iter()
        .map(|&support| {
            (0..6)
                .map(|col| {
                    if col < support {
                        Gf256::random_nonzero(&mut rng)
                    } else {
                        Gf256::ZERO
                    }
                })
                .collect()
        })
        .collect();
    let decoding_matrix = Matrix::from_rows(rows.clone());
    println!("\n(a) decoding matrix\n{decoding_matrix:?}");

    let reduced = rref(&decoding_matrix);
    println!("\n(c) RREF (rank {})\n{:?}", reduced.rank, reduced.matrix);

    // The progressive decoder reaches the same conclusion block by block.
    let mut dec: ProgressiveRref<Gf256> = ProgressiveRref::new(6);
    for (i, row) in rows.into_iter().enumerate() {
        dec.insert(row, ());
        println!(
            "after block {}: decoded prefix = {} unknown(s)",
            i + 1,
            dec.decoded_prefix()
        );
    }
    assert_eq!(dec.decoded_prefix(), 3, "Fig. 2 decodes exactly x1..x3");
    println!(
        "\n=> exactly the first {} unknowns decode from 5 of 6 equations, \
         as in the paper.",
        dec.decoded_prefix()
    );
    Vec::new()
}

/// `(levels, blocks per level, max blocks, step)` of one figure panel.
type Panel = (usize, usize, usize, usize);

/// One of the decoding-curve figures: uniform profiles under a uniform
/// priority distribution, the mean number of decoded levels (95% CI)
/// against the number of processed coded blocks, panels (a) and (b).
pub(crate) struct CurveFigure {
    fig: u8,
    /// Simulated schemes; a figure of one scheme also overlays its
    /// analysis.
    schemes: &'static [Scheme],
    /// Added to the base seed, so each figure draws its own runs.
    seed_offset: u64,
    title: &'static str,
    columns: &'static [&'static str],
    panels: [Panel; 2],
}

/// Figure 4 — "Analysis vs. simulations for PLC" (Sec. 5.1): 1000 source
/// blocks, (a) 5 levels × 200 blocks, (b) 50 levels × 20 blocks.
pub(crate) const FIG4: CurveFigure = CurveFigure {
    fig: 4,
    schemes: &[Scheme::Plc],
    seed_offset: 0,
    title: "PLC analysis vs simulation",
    columns: &["M", "analysis E(X)", "sim mean", "sim ci95"],
    panels: [(5, 200, 1500, 50), (50, 20, 1500, 50)],
};

/// Figure 5 — "Analysis vs. simulations for SLC" (Sec. 5.1): Fig. 4's
/// profiles with the stacked code, whose analysis is exact. SLC needs
/// more blocks than PLC to saturate (per-level coupon effects), so the
/// x-axis extends past Fig. 4's.
pub(crate) const FIG5: CurveFigure = CurveFigure {
    fig: 5,
    schemes: &[Scheme::Slc],
    seed_offset: 5,
    title: "SLC analysis vs simulation",
    columns: &["M", "analysis E(X)", "sim mean", "sim ci95"],
    panels: [(5, 200, 2000, 50), (50, 20, 3000, 100)],
};

/// Figure 6 — "SLC vs. PLC" (Sec. 5.2): 1000 source blocks, (a) 10
/// levels × 100 blocks, (b) 50 levels × 20 blocks. The gap is modest at
/// 10 levels and significant at 50: the level count barely affects PLC
/// but strongly degrades SLC.
pub(crate) const FIG6: CurveFigure = CurveFigure {
    fig: 6,
    schemes: &[Scheme::Slc, Scheme::Plc],
    seed_offset: 6,
    title: "SLC vs PLC",
    columns: &["M", "SLC mean", "SLC ci95", "PLC mean", "PLC ci95"],
    panels: [(10, 100, 2500, 100), (50, 20, 2500, 100)],
};

/// Both panels of a decoding-curve figure.
pub(crate) fn curve_figure(fig: &CurveFigure, opts: &RunOpts) -> Vec<Csv> {
    fig.panels
        .iter()
        .zip(['a', 'b'])
        .map(|(&(levels, per_level, max_blocks, step), panel)| {
            let name = format!("fig{}{panel}", fig.fig);
            let profile = PriorityProfile::uniform(levels, per_level).expect("valid profile");
            let dist = PriorityDistribution::uniform(levels);
            eprintln!(
                "[{name}] {}, {levels} levels x {per_level}, runs={} ...",
                fig.title, opts.runs
            );
            let sims: Vec<DecodingCurve> = fig
                .schemes
                .iter()
                .map(|&scheme| {
                    simulate_decoding_curve::<Gf256>(&CurveConfig {
                        persistence: Persistence::Coding(scheme),
                        profile: profile.clone(),
                        distribution: dist.clone(),
                        max_blocks,
                        runs: opts.runs,
                        seed: opts.seed.wrapping_add(fig.seed_offset),
                    })
                })
                .collect();

            let ana = AnalysisOptions::sharp();
            let mut table = Table::new(fig.columns.iter().copied());
            for m in sample_points(max_blocks, step) {
                let mut row = vec![m.to_string()];
                if let [scheme] = fig.schemes {
                    let a = curves::expected_levels(*scheme, &profile, &dist, m, &ana);
                    row.push(fmt_f(a, 4));
                }
                for sim in &sims {
                    row.push(fmt_f(sim.summaries[m].mean, 4));
                    row.push(fmt_f(sim.summaries[m].ci95, 4));
                }
                table.push_row(row);
            }
            let title = format!("Fig. {} ({name}): {} — {levels} levels", fig.fig, fig.title);
            Csv::new(name, title, table)
        })
        .collect()
}

/// Table 1 — "The priority distribution solved from the optimization
/// problem" (Sec. 5.3).
///
/// Feasibility constraints per case over [`table1_profile`]: (130, 1),
/// (950, 2); (265, 1), (287, 2); (240, 1), (450, 2); plus the
/// full-recovery constraint with α = 2, ε = 0.01 and the simplex
/// constraints. The paper's MATLAB search returns *the first feasible
/// point it finds* from the uniform start, as does
/// [`solve_feasibility`], so solutions are not unique: the table prints
/// each constraint's slack (achieved − required) at ours, and the
/// paper's rows alongside with whether they are feasible under our
/// analysis. It reads neither `--seed` nor `--runs`.
pub(crate) fn table1(_: &RunOpts) -> Vec<Csv> {
    let profile = table1_profile();
    let cases: [(&str, [(usize, f64); 2]); 3] = [
        ("Case 1", [(130, 1.0), (950, 2.0)]),
        ("Case 2", [(265, 1.0), (287, 2.0)]),
        ("Case 3", [(240, 1.0), (450, 2.0)]),
    ];

    let ana = AnalysisOptions::sharp();
    let mut table = Table::new([
        "case",
        "constraints",
        "p1",
        "p2",
        "p3",
        "slack E(X_M1) - k1",
        "slack E(X_M2) - k2",
        "slack Pr(X_2N = n) - (1 - eps)",
        "paper p (for reference)",
        "paper p feasible under our analysis",
    ]);

    for (((name, constraints), paper), row) in cases
        .iter()
        .zip(paper_table1_distributions())
        .zip(PAPER_TABLE1)
    {
        let problem = FeasibilityProblem {
            scheme: Scheme::Plc,
            profile: profile.clone(),
            constraints: constraints
                .iter()
                .map(|&(m, k)| DecodingConstraint::new(m, k))
                .collect(),
            full_recovery: Some(FullRecoveryConstraint::paper_default()),
            options: ana,
            // The paper's MATLAB evaluated feasibility under the technical
            // report's *approximate* analysis; its published rows sit a
            // hair outside our exact feasible region. 5e-3 of slack
            // reproduces the paper's accept/reject behaviour.
            tolerance: 5e-3,
        };
        eprintln!("[table1] solving {name} ...");
        let sol = solve_feasibility(&problem);
        let checks = problem.check(&sol.distribution);

        let cons_str = constraints
            .iter()
            .map(|&(m, k)| format!("({m}, {k})"))
            .collect::<Vec<_>>()
            .join(" ");
        let mut cells = vec![name.to_string(), cons_str];
        cells.extend((0..3).map(|l| fmt_f(sol.distribution.p(l), 4)));
        cells.extend(checks.iter().map(|c| fmt_f(c.achieved - c.required, 4)));
        cells.push(format!("[{:.4}, {:.4}, {:.4}]", row[0], row[1], row[2]));
        cells.push(problem.is_feasible(&paper).to_string());
        table.push_row(cells);

        // Detailed constraint evaluation for the solved distribution.
        eprintln!(
            "  solved p = {:?} ({} evaluations, penalty {:.2e})",
            sol.distribution.as_slice(),
            sol.evaluations,
            sol.penalty
        );
        for check in &checks {
            eprintln!(
                "    {}: achieved {:.4}, required {:.4} -> {}",
                check.description, check.achieved, check.required, check.satisfied
            );
        }
        // And show E(X) at the constraint points for the paper's row.
        for &(m, _) in constraints {
            let e = curves::expected_levels(Scheme::Plc, &profile, &paper, m, &ana);
            eprintln!("    paper row: E(X_{{{m}}}) = {e:.4}");
        }
    }

    vec![Csv::new(
        "table1",
        "Table 1: priority distributions solved from the feasibility problem",
        table,
    )]
}

/// Figure 7 — "The decoding curves from the priority distribution of
/// Table 1" (Sec. 5.3).
///
/// Simulated PLC decoding curves for the paper's three Table-1
/// distributions over [`table1_profile`]. Expected shape: Case 1 reaches
/// level 1 by ~130 blocks; Case 2 reaches level 2 by ~287; every curve
/// satisfies its constraints; RLC would decode nothing before 500.
pub(crate) fn fig7(opts: &RunOpts) -> Vec<Csv> {
    let profile = table1_profile();
    let (max_blocks, step) = (1000, 25);

    let dists = paper_table1_distributions();
    let sims: Vec<DecodingCurve> = dists
        .iter()
        .enumerate()
        .map(|(i, dist)| {
            eprintln!("[fig7] simulating case {} ...", i + 1);
            simulate_decoding_curve::<Gf256>(&CurveConfig {
                persistence: Persistence::Coding(Scheme::Plc),
                profile: profile.clone(),
                distribution: dist.clone(),
                max_blocks,
                runs: opts.runs,
                seed: opts.seed.wrapping_add(7 + i as u64),
            })
        })
        .collect();

    let ana = AnalysisOptions::sharp();
    let mut table = Table::new([
        "M",
        "case1 sim",
        "case1 ci95",
        "case1 analysis",
        "case2 sim",
        "case2 ci95",
        "case2 analysis",
        "case3 sim",
        "case3 ci95",
        "case3 analysis",
    ]);
    for m in sample_points(max_blocks, step) {
        let mut row = vec![m.to_string()];
        for (sim, dist) in sims.iter().zip(&dists) {
            let s = sim.summaries[m];
            let a = curves::expected_levels(Scheme::Plc, &profile, dist, m, &ana);
            row.push(fmt_f(s.mean, 4));
            row.push(fmt_f(s.ci95, 4));
            row.push(fmt_f(a, 4));
        }
        table.push_row(row);
    }

    // Key crossover milestones called out in the paper's text.
    let first_reach = |sim: &DecodingCurve, level: f64| -> Option<usize> {
        sim.summaries.iter().position(|s| s.mean >= level)
    };
    println!("\nMilestones (first M where the mean curve reaches a level):");
    for (i, sim) in sims.iter().enumerate() {
        println!(
            "  case {}: level 1 at M={:?}, level 2 at M={:?}",
            i + 1,
            first_reach(sim, 1.0),
            first_reach(sim, 2.0)
        );
    }
    println!("  (RLC requires at least 500 coded blocks to decode anything.)");

    vec![Csv::new(
        "fig7",
        "Fig. 7: decoding curves for the Table-1 priority distributions",
        table,
    )]
}
