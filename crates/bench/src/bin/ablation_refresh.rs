//! Ablation A6 — in-network repair over repeated churn epochs
//! (DESIGN.md extension).
//!
//! The paper persists data through one failure event; under continuous
//! churn stored redundancy decays. This ablation runs the persistence
//! timeline with no repair vs functional repair (2 and 4 donors per
//! repaired block) and reports decodable levels after each epoch.

use prlc_bench::RunOpts;
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::Gf256;
use prlc_net::{CoeffRep, FaultPlan, SourceFanout};
use prlc_sim::{fmt_f, simulate_persistence_timeline, Table, TimelineConfig};

fn main() {
    let opts = RunOpts::from_args();
    let (profile, nodes, locations, epochs) = if opts.quick {
        (
            PriorityProfile::new(vec![2, 3, 5]).expect("valid"),
            40,
            25,
            4,
        )
    } else {
        (
            PriorityProfile::new(vec![10, 20, 40]).expect("valid"),
            200,
            180,
            8,
        )
    };

    let base = TimelineConfig {
        scheme: Scheme::Plc,
        profile: profile.clone(),
        distribution: PriorityDistribution::uniform(3),
        nodes,
        locations,
        churn_per_epoch: 0.15,
        epochs,
        repair_donors: None,
        faults: FaultPlan::none(),
        fanout: SourceFanout::All,
        coeff_rep: CoeffRep::Dense,
        runs: opts.runs,
        seed: opts.seed.wrapping_add(99),
    };

    let variants: [(&str, Option<usize>); 3] = [
        ("no repair", None),
        ("repair r=2", Some(2)),
        ("repair r=4", Some(4)),
    ];
    let mut results = Vec::new();
    for (name, donors) in variants {
        eprintln!("[ablation_refresh] {name} ...");
        let mut cfg = base.clone();
        cfg.repair_donors = donors;
        results.push(simulate_persistence_timeline::<Gf256>(&cfg).expect("timeline simulation"));
    }

    let mut table = Table::new(["epoch", "no repair", "repair r=2", "repair r=4"]);
    for (e, ((none, r2), r4)) in results[0]
        .iter()
        .zip(&results[1])
        .zip(&results[2])
        .enumerate()
    {
        table.push_row([
            e.to_string(),
            fmt_f(none.mean, 3),
            fmt_f(r2.mean, 3),
            fmt_f(r4.mean, 3),
        ]);
    }
    opts.emit(
        "ablation_refresh",
        &format!(
            "Ablation A6: decodable levels over churn epochs (PLC, {nodes} nodes, \
             15% churn/epoch, M={locations})"
        ),
        &table,
    );
}
