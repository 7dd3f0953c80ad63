//! One scenario engine for every networked experiment: a deployment,
//! failures epoch by epoch, and a measurement after each epoch.
//!
//! The paper judges a code by what a collector can still decode after
//! nodes fail (Sec. 5). Every networked experiment here has that shape,
//! so a [`Scenario`] describes one as data:
//!
//! * a **deployment** — scheme, level profile, priority distribution,
//!   overlay size, storage locations, source fanout, coefficient-row
//!   representation, the fault plan of the protocol sessions and an
//!   optional structured adversary;
//! * a **per-epoch event list** of [`Event`]s — overlay churn,
//!   in-network repair, adversary strikes;
//! * a **measurement** ([`Measure`]) taken after every epoch's events —
//!   omniscient decoding of the surviving blocks, one collection
//!   through the run's faulted transport, or a loss × retry grid of
//!   collections over fresh lossy links.
//!
//! The experiment families are rows of that table:
//!
//! | experiment | epoch 0 | epochs 1..=E | measure |
//! |---|---|---|---|
//! | persistence timeline ([`TimelineConfig`]) | — | `Churn`, `Repair`? | `Omniscient` |
//! | adversary sweep (A10) | — | `Strike`, `Churn`?, `Repair`? | `Collect` |
//! | lossy collection (A8) | `Churn(0.3)` | — | `Grid` |
//!
//! [`Scenario::run`] executes independent runs, seeded by index through
//! [`crate::runner`], so results are bit-identical across thread counts.
//! One run:
//!
//! 1. builds a fresh ring of `nodes` nodes from the run RNG;
//! 2. re-seeds the fault plan and the adversary plan with
//!    `splitmix64(run_seed ^ plan.seed)`, so realisations differ across
//!    runs but stay pinned to the base seed;
//! 3. predistributes through the run's single fault session —
//!    predistribution, every repair pass and every `Collect`
//!    measurement advance one message-step clock, so trace spans of
//!    successive sessions nest on one causal timeline;
//! 4. draws the collector from the run RNG when the measurement or the
//!    adversary needs one;
//! 5. per epoch, applies the events in order, then measures.

use prlc_core::{
    CoeffRep, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme,
    SlcDecoder,
};
use prlc_gf::GfElem;
use prlc_net::{
    collect_with_faults, observe_deployment, predistribute_with_faults, refresh_with_faults,
    Adversary, AdversaryPlan, CollectionConfig, CollectionReport, Deployment, FaultPlan,
    FaultSession, Network, NodeId, ProtocolConfig, ProtocolError, RefreshConfig, RetryPolicy,
    RingNetwork, SourceFanout,
};
use prlc_obs::baseline::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::{default_threads, run_parallel_with_threads, splitmix64};
use crate::stats::{summarize_trajectories, Summary};
use crate::table::{fmt_f, Table};

/// One step of an epoch, applied in list order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Every alive node fails independently with this probability. The
    /// draw takes one `f64` per alive node even at `0.0`, so a scenario
    /// without churn leaves the event out rather than churning at zero.
    Churn(f64),
    /// An in-network repair pass through the run's fault session,
    /// combining `donors` surviving blocks per lost slot. Churn is
    /// visible to it; adversary crashes and compromises are not.
    Repair {
        /// Donors per repaired slot.
        donors: usize,
    },
    /// The adversary's epoch boundary: the first strike arms it against
    /// the ring, the collector and the deployment as they stand; every
    /// strike then advances it one epoch (creep corrupts more nodes) and
    /// fires the strikes already due, even if no message would otherwise
    /// cross the boundary.
    Strike,
}

/// What one run records after each epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Measure {
    /// Every surviving block offered to a fresh decoder, stopping once
    /// it is complete. Emits the `sim.timeline.epoch` trace instant.
    Omniscient,
    /// One collection from the run's collector through the run's fault
    /// session into a fresh decoder: decoded levels plus a survival
    /// indicator per level. An empty overlay or a collection that
    /// cannot start scores zero — losing the collector is a legitimate
    /// attack outcome.
    Collect,
    /// A collection per `(loss, retry budget)` cell over a fresh
    /// [`FaultPlan::lossy`] session with one backoff hop per retry:
    /// decoded levels plus the [`ACCOUNTING`] fields. Cells sharing a
    /// loss rate share the collector and visit order (paired
    /// comparison); their RNG comes from a per-loss sub-seed, never the
    /// run RNG.
    Grid {
        /// Per-transmission loss rates (outer axis).
        losses: Vec<f64>,
        /// Retries allowed after the first attempt (inner axis).
        retry_budgets: Vec<usize>,
    },
}

/// The collection-report fields a [`Measure::Grid`] cell records, in
/// [`Row::accounting`] order: coded blocks that reached the collector,
/// query transmissions lost in transit, retransmissions spent, caching
/// nodes skipped as unroutable or crashed, queries abandoned after the
/// retry budget, and total query hops (retries and backoff included).
pub const ACCOUNTING: [&str; 6] = [
    "blocks_collected",
    "lost_messages",
    "retries_spent",
    "unreachable_nodes",
    "gave_up",
    "query_hops",
];

/// A networked experiment: deployment, per-epoch events, measurement.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Coding scheme (the baselines have no networked path).
    pub scheme: Scheme,
    /// Level sizes.
    pub profile: PriorityProfile,
    /// Priority distribution for the location parts.
    pub distribution: PriorityDistribution,
    /// Overlay size (ring nodes).
    pub nodes: usize,
    /// Storage locations `M`.
    pub locations: usize,
    /// Source fanout of the predistribution phase.
    pub fanout: SourceFanout,
    /// Coefficient-row storage of the cached blocks: a representation
    /// choice only, results are identical either way.
    pub coeff_rep: CoeffRep,
    /// Fault plan of the run's protocol sessions (lossy links, retries).
    pub faults: FaultPlan,
    /// The attack [`Event::Strike`] advances, if any.
    pub adversary: Option<AdversaryPlan>,
    /// Events per epoch; entry `e` is applied before measurement `e`,
    /// so there is one measurement per entry. See [`every_epoch`].
    pub epochs: Vec<Vec<Event>>,
    /// What every epoch measures.
    pub measure: Measure,
    /// Independent runs.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

/// `epochs` epochs of `events` after an event-free epoch 0 — the layout
/// of the timeline and adversary experiments, whose first measurement
/// is the fresh deployment.
pub fn every_epoch(epochs: usize, events: &[Event]) -> Vec<Vec<Event>> {
    std::iter::once(Vec::new())
        .chain(std::iter::repeat_n(events.to_vec(), epochs))
        .collect()
}

/// One measurement, averaged over the runs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Index of the epoch the row was measured after.
    pub epoch: usize,
    /// `(loss, retry budget)` of a [`Measure::Grid`] cell.
    pub cell: Option<(f64, usize)>,
    /// Decoded priority levels.
    pub decoded_levels: Summary,
    /// [`Measure::Collect`]: entry `k` is the fraction of runs in which
    /// level `k + 1` was decodable. Empty otherwise.
    pub survival: Vec<f64>,
    /// [`Measure::Grid`]: per-run means of the [`ACCOUNTING`] fields.
    /// Empty otherwise.
    pub accounting: Vec<f64>,
}

impl Scenario {
    /// Runs the scenario on `threads` workers and returns its rows:
    /// one per epoch, or one per grid cell per epoch in `losses ×
    /// retry_budgets` row-major order.
    ///
    /// # Errors
    ///
    /// Returns the first run's [`ProtocolError`] from predistribution.
    /// Under an adversary a run that cannot deploy (or draw its
    /// collector) scores zero everywhere instead: losing the deployment
    /// is a legitimate outcome of the attack.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero, or on an invalid fault or adversary
    /// plan (e.g. a loss rate outside `[0, 1]`).
    pub fn run<F: GfElem>(&self, threads: usize) -> Result<Vec<Row>, ProtocolError> {
        let width = self.epochs.len() * self.width();
        let trajectories = run_parallel_with_threads(self.runs, self.seed, threads, |seed| {
            match self.one_run::<F>(seed) {
                Err(_) if self.adversary.is_some() => Ok(vec![0.0; width]),
                run => run,
            }
        });
        let trajectories: Vec<Vec<f64>> = trajectories.into_iter().collect::<Result<_, _>>()?;
        Ok(self.rows(&summarize_trajectories(&trajectories)))
    }

    /// Values one measurement appends per run.
    fn width(&self) -> usize {
        self.per_cell() * self.cells().len()
    }

    /// Values one measurement appends per cell: the decoded levels,
    /// then survival indicators or accounting fields.
    fn per_cell(&self) -> usize {
        match &self.measure {
            Measure::Omniscient => 1,
            Measure::Collect => 1 + self.profile.num_levels(),
            Measure::Grid { .. } => 1 + ACCOUNTING.len(),
        }
    }

    /// The cells one measurement covers: the grid, or a single unkeyed
    /// cell.
    fn cells(&self) -> Vec<Option<(f64, usize)>> {
        match &self.measure {
            Measure::Grid {
                losses,
                retry_budgets,
            } => losses
                .iter()
                .flat_map(|&l| retry_budgets.iter().map(move |&r| Some((l, r))))
                .collect(),
            _ => vec![None],
        }
    }

    /// The run loop: the only place that builds a ring, re-seeds the
    /// plans and predistributes.
    fn one_run<F: GfElem>(&self, seed: u64) -> Result<Vec<f64>, ProtocolError> {
        let mut out = Vec::with_capacity(self.epochs.len() * self.width());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = RingNetwork::new(self.nodes, &mut rng);
        let mut plan = self.faults.clone();
        plan.seed = splitmix64(seed ^ plan.seed);
        let mut session = plan.session(self.nodes);
        let mut adversary = self.adversary.map(|mut plan| {
            plan.seed = splitmix64(seed ^ plan.seed);
            Adversary::new(plan, self.nodes)
        });

        let protocol = ProtocolConfig {
            scheme: self.scheme,
            profile: self.profile.clone(),
            distribution: self.distribution.clone(),
            locations: self.locations,
            fanout: self.fanout,
            coeff_rep: self.coeff_rep,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        };
        let sources: Vec<Vec<F>> = vec![Vec::new(); self.profile.total_blocks()];
        let mut dep = predistribute_with_faults(&net, &protocol, &sources, &mut session, &mut rng)?;
        let collector = if self.measure == Measure::Collect || adversary.is_some() {
            Some(
                net.random_alive_node(&mut rng)
                    .ok_or(ProtocolError::NetworkEmpty)?,
            )
        } else {
            None
        };

        let mut armed = false;
        for (epoch, events) in self.epochs.iter().enumerate() {
            for event in events {
                match *event {
                    Event::Churn(p) => {
                        net.fail_uniform(p, &mut rng);
                    }
                    Event::Repair { donors } => {
                        // An empty overlay has nothing to repair with:
                        // the pass returns without touching anything.
                        refresh_with_faults(
                            &net,
                            &mut dep,
                            &RefreshConfig {
                                scheme: self.scheme,
                                donors_per_slot: donors,
                            },
                            &mut session,
                            &mut rng,
                        );
                    }
                    Event::Strike => {
                        if let (Some(adversary), Some(collector)) = (&mut adversary, collector) {
                            if !armed {
                                adversary.arm_topology(&net, collector, &mut session);
                                adversary.arm_observed(&observe_deployment(&dep), &mut session);
                                armed = true;
                            }
                            adversary.advance_epoch(&mut session);
                        }
                        session.advance_steps(0);
                    }
                }
            }
            self.measure::<F>(
                epoch,
                &net,
                &dep,
                collector,
                &mut session,
                &mut rng,
                seed,
                &mut out,
            );
        }
        Ok(out)
    }

    /// Appends one measurement of the current run to `out`.
    #[allow(clippy::too_many_arguments)]
    fn measure<F: GfElem>(
        &self,
        epoch: usize,
        net: &RingNetwork,
        dep: &Deployment<F>,
        collector: Option<NodeId>,
        session: &mut FaultSession,
        rng: &mut StdRng,
        seed: u64,
        out: &mut Vec<f64>,
    ) {
        match &self.measure {
            Measure::Omniscient => {
                // A complete decoder decodes every level, so the blocks
                // left over cannot change the measurement; `collect`
                // stops at the same point.
                let mut dec = self.decoder::<F>();
                for i in dep.surviving_slots(net) {
                    let block = &dep.slots()[i].block;
                    if !block.is_empty() {
                        dec.insert_block(block);
                        if dec.is_complete() {
                            break;
                        }
                    }
                }
                let levels = dec.decoded_levels();
                out.push(levels as f64);
                if prlc_obs::trace::enabled() {
                    prlc_obs::trace_instant!("sim.timeline.epoch", epoch as u64, levels: levels as u64);
                }
            }
            Measure::Collect => {
                let levels = match collector {
                    Some(c) if net.alive_count() > 0 => self
                        .collect::<F>(net, dep, c, session, rng)
                        .map_or(0, |(_, levels)| levels),
                    _ => 0,
                };
                out.push(levels as f64);
                out.extend((1..=self.profile.num_levels()).map(|k| f64::from(levels >= k)));
            }
            Measure::Grid {
                losses,
                retry_budgets,
            } => {
                for (li, &loss) in losses.iter().enumerate() {
                    let loss_seed = mix_loss_seed(seed, li as u64);
                    for &retries in retry_budgets {
                        let mut cell_rng = StdRng::seed_from_u64(loss_seed);
                        let (report, levels) = net
                            .random_alive_node(&mut cell_rng)
                            .and_then(|c| {
                                let plan = FaultPlan::lossy(
                                    loss,
                                    RetryPolicy::with_retries(retries, 1),
                                    loss_seed,
                                );
                                let mut faults = plan.session(net.node_count());
                                self.collect::<F>(net, dep, c, &mut faults, &mut cell_rng)
                            })
                            .unwrap_or((CollectionReport::default(), 0));
                        out.extend(
                            [
                                levels,
                                report.blocks_collected,
                                report.lost_messages,
                                report.retries,
                                report.unreachable_nodes,
                                report.gave_up,
                                report.query_hops,
                            ]
                            .map(|v| v as f64),
                        );
                    }
                }
            }
        }
    }

    /// A fresh coefficients-only decoder for the scheme: SLC decodes
    /// level by level, PLC's decoder also decodes RLC.
    fn decoder<'a, F: GfElem + 'a>(&self) -> Box<dyn PriorityDecoder<F> + 'a> {
        match self.scheme {
            Scheme::Slc => Box::new(SlcDecoder::<F, ()>::coefficients_only(self.profile.clone())),
            _ => Box::new(PlcDecoder::<F, ()>::coefficients_only(self.profile.clone())),
        }
    }

    /// Collects from `collector` into a fresh decoder: the report and
    /// the decoded levels, or `None` if the collection could not start.
    fn collect<F: GfElem>(
        &self,
        net: &RingNetwork,
        dep: &Deployment<F>,
        collector: NodeId,
        session: &mut FaultSession,
        rng: &mut (impl Rng + ?Sized),
    ) -> Option<(CollectionReport, usize)> {
        let mut dec = self.decoder::<F>();
        let ccfg = CollectionConfig::default();
        let report = collect_with_faults(net, dep, &mut dec, collector, &ccfg, session, rng)?;
        Some((report, dec.decoded_levels()))
    }

    /// Folds the per-position summaries back into rows.
    fn rows(&self, summaries: &[Summary]) -> Vec<Row> {
        let cells = self.cells();
        let collect = self.measure == Measure::Collect;
        summaries
            .chunks(self.per_cell())
            .enumerate()
            .map(|(i, s)| {
                let extra: Vec<f64> = s[1..].iter().map(|x| x.mean).collect();
                let (survival, accounting) = if collect {
                    (extra, Vec::new())
                } else {
                    (Vec::new(), extra)
                };
                Row {
                    epoch: i / cells.len(),
                    cell: cells[i % cells.len()],
                    decoded_levels: s[0],
                    survival,
                    accounting,
                }
            })
            .collect()
    }
}

/// Domain-separated sub-seed for loss level `li` of a grid measurement.
/// Every retry budget at one loss rate shares a collector and visit
/// order (paired comparison) while distinct loss levels never alias;
/// the tag is registered in docs/RNG_DOMAINS.md.
fn mix_loss_seed(seed: u64, li: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0x4C4F_5353 ^ li)) // "LOSS"
}

/// Renders rows as a JSON array (the `results` payload of a
/// `BENCH_*.json` envelope). A grid row is keyed by its cell, any other
/// row by its epoch; survival and accounting fields follow when present.
pub fn results_json(rows: &[Row]) -> String {
    let rows = rows.iter().map(|r| {
        let mut fields = match r.cell {
            Some((loss, retries)) => vec![
                ("loss", Json::fixed(loss, 4)),
                ("retries", Json::uint(retries as u64)),
            ],
            None => vec![("epoch", Json::uint(r.epoch as u64))],
        };
        fields.push(("levels_mean", Json::fixed(r.decoded_levels.mean, 6)));
        fields.push(("levels_ci95", Json::fixed(r.decoded_levels.ci95, 6)));
        if !r.survival.is_empty() {
            let survival = r.survival.iter().map(|&v| Json::fixed(v, 6));
            fields.push(("survival", Json::Arr(survival.collect())));
        }
        let accounting = ACCOUNTING.iter().zip(&r.accounting);
        fields.extend(accounting.map(|(&name, &v)| (name, Json::fixed(v, 3))));
        Json::obj(fields)
    });
    Json::Arr(rows.collect()).render()
}

/// Renders rows as the aligned text table `prlc sim` prints.
pub fn rows_table(rows: &[Row]) -> Table {
    let grid = rows.first().is_some_and(|r| r.cell.is_some());
    let survival = rows.first().is_some_and(|r| !r.survival.is_empty());
    let mut headers = if grid {
        vec!["loss", "retries"]
    } else {
        vec!["epoch"]
    };
    headers.extend(["levels", "ci95"]);
    if survival {
        headers.push("survival");
    }
    if grid {
        headers.extend(["lost", "resent", "gave-up", "hops"]);
    }
    let mut table = Table::new(headers);
    for r in rows {
        let mut cells = match r.cell {
            Some((loss, retries)) => vec![fmt_f(loss, 2), retries.to_string()],
            None => vec![r.epoch.to_string()],
        };
        cells.push(fmt_f(r.decoded_levels.mean, 3));
        cells.push(fmt_f(r.decoded_levels.ci95, 3));
        if survival {
            let s: Vec<String> = r.survival.iter().map(|v| fmt_f(*v, 2)).collect();
            cells.push(s.join(" "));
        }
        if grid {
            // lost_messages, retries_spent, gave_up, query_hops.
            for (i, decimals) in [(1, 1), (2, 1), (4, 1), (5, 0)] {
                cells.push(fmt_f(r.accounting[i], decimals));
            }
        }
        table.push_row(cells);
    }
    table
}

/// Configuration of a persistence timeline: churn epoch after churn
/// epoch, optionally repaired, measured omnisciently. A shorthand for
/// the [`Scenario`] that [`TimelineConfig::scenario`] builds.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Coding scheme.
    pub scheme: Scheme,
    /// Level sizes.
    pub profile: PriorityProfile,
    /// Priority distribution for the location parts.
    pub distribution: PriorityDistribution,
    /// Overlay size (ring nodes).
    pub nodes: usize,
    /// Storage locations `M`.
    pub locations: usize,
    /// Per-epoch independent node-failure probability.
    pub churn_per_epoch: f64,
    /// Number of churn epochs to simulate.
    pub epochs: usize,
    /// Donors per repaired slot; `None` disables repair.
    pub repair_donors: Option<usize>,
    /// Fault plan for the protocol sessions themselves.
    pub faults: FaultPlan,
    /// Source fanout of the predistribution phase.
    pub fanout: SourceFanout,
    /// Coefficient-row storage for the cached blocks.
    pub coeff_rep: CoeffRep,
    /// Independent runs.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

impl TimelineConfig {
    /// The timeline as a scenario: churn (even at probability zero) and
    /// the optional repair every epoch, omniscient measurement.
    pub fn scenario(&self) -> Scenario {
        let mut events = vec![Event::Churn(self.churn_per_epoch)];
        events.extend(self.repair_donors.map(|donors| Event::Repair { donors }));
        Scenario {
            scheme: self.scheme,
            profile: self.profile.clone(),
            distribution: self.distribution.clone(),
            nodes: self.nodes,
            locations: self.locations,
            fanout: self.fanout,
            coeff_rep: self.coeff_rep,
            faults: self.faults.clone(),
            adversary: None,
            epochs: every_epoch(self.epochs, &events),
            measure: Measure::Omniscient,
            runs: self.runs,
            seed: self.seed,
        }
    }
}

/// Mean decodable levels after each epoch (`out[0]` is before any
/// churn; `out[e]` after epoch `e`), on the runner's default worker
/// count.
///
/// # Errors
///
/// Returns the first [`ProtocolError`] raised by any run's
/// predistribution.
pub fn simulate_persistence_timeline<F: GfElem>(
    cfg: &TimelineConfig,
) -> Result<Vec<Summary>, ProtocolError> {
    simulate_persistence_timeline_with_threads::<F>(cfg, default_threads())
}

/// [`simulate_persistence_timeline`] with an explicit worker count.
///
/// # Errors
///
/// See [`simulate_persistence_timeline`].
pub fn simulate_persistence_timeline_with_threads<F: GfElem>(
    cfg: &TimelineConfig,
    threads: usize,
) -> Result<Vec<Summary>, ProtocolError> {
    let rows = cfg.scenario().run::<F>(threads)?;
    Ok(rows.into_iter().map(|r| r.decoded_levels).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;
    use prlc_net::AdversaryStrategy;

    fn timeline(repair: Option<usize>) -> TimelineConfig {
        TimelineConfig {
            scheme: Scheme::Plc,
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            nodes: 50,
            locations: 30,
            churn_per_epoch: 0.2,
            epochs: 4,
            repair_donors: repair,
            faults: FaultPlan::none(),
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            runs: 8,
            seed: 5,
        }
    }

    fn adversary(strategy: AdversaryStrategy) -> Scenario {
        Scenario {
            nodes: 60,
            adversary: Some(AdversaryPlan {
                strategy,
                after_messages: 0,
                seed: 3,
            }),
            epochs: every_epoch(3, &[Event::Strike]),
            measure: Measure::Collect,
            seed: 17,
            ..timeline(None).scenario()
        }
    }

    fn lossy(losses: &[f64], retry_budgets: &[usize]) -> Scenario {
        Scenario {
            nodes: 80,
            locations: 40,
            epochs: vec![vec![Event::Churn(0.2)]],
            measure: Measure::Grid {
                losses: losses.to_vec(),
                retry_budgets: retry_budgets.to_vec(),
            },
            runs: 12,
            seed: 11,
            ..timeline(None).scenario()
        }
    }

    fn run(scenario: &Scenario) -> Vec<Row> {
        scenario.run::<Gf256>(default_threads()).expect("scenario")
    }

    fn accounting(row: &Row, name: &str) -> f64 {
        let i = ACCOUNTING.iter().position(|a| *a == name).expect("field");
        row.accounting[i]
    }

    #[test]
    fn timeline_has_expected_shape() {
        let out = simulate_persistence_timeline::<Gf256>(&timeline(None)).expect("timeline");
        assert_eq!(out.len(), 5);
        // Fresh deployment with 3x overhead decodes everything.
        assert!(out[0].mean > 2.5, "epoch 0: {}", out[0].mean);
        // Persistence decays (weakly) over epochs without repair.
        assert!(out[4].mean <= out[0].mean + 1e-9);
    }

    #[test]
    fn repair_improves_long_horizon_persistence() {
        let without = simulate_persistence_timeline::<Gf256>(&timeline(None)).expect("timeline");
        let with = simulate_persistence_timeline::<Gf256>(&timeline(Some(3))).expect("timeline");
        // Same seeds, same churn realisations: repair can only help.
        assert!(
            with[4].mean >= without[4].mean,
            "repair hurt: {} vs {}",
            with[4].mean,
            without[4].mean
        );
        // And over a longer horizon it must help strictly (with high
        // probability at these sizes).
        let mut cfg = timeline(Some(3));
        cfg.epochs = 8;
        let long_with = simulate_persistence_timeline::<Gf256>(&cfg).expect("timeline");
        cfg.repair_donors = None;
        let long_without = simulate_persistence_timeline::<Gf256>(&cfg).expect("timeline");
        assert!(
            long_with[8].mean > long_without[8].mean,
            "8 epochs: {} vs {}",
            long_with[8].mean,
            long_without[8].mean
        );
    }

    #[test]
    fn timeline_is_deterministic() {
        let a = simulate_persistence_timeline::<Gf256>(&timeline(Some(2))).expect("timeline");
        let b = simulate_persistence_timeline::<Gf256>(&timeline(Some(2))).expect("timeline");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean, y.mean);
        }
    }

    #[test]
    fn zero_churn_kills_nobody_but_still_draws() {
        let churn = |events: &[Event]| {
            let scenario = Scenario {
                epochs: every_epoch(4, events),
                ..timeline(Some(2)).scenario()
            };
            results_json(&run(&scenario))
        };
        assert_eq!(churn(&[Event::Churn(0.0)]), churn(&[]));
        // The zero-probability draws shift the run RNG, so the churn that
        // follows kills other nodes: a scenario without churn must leave
        // the event out.
        assert_ne!(
            churn(&[Event::Churn(0.0), Event::Churn(0.3)]),
            churn(&[Event::Churn(0.3)])
        );
    }

    #[test]
    fn targeted_adversary_degrades_decoding() {
        let benign = adversary(AdversaryStrategy::Targeted {
            kills: 0,
            focus: 1.0,
        });
        let attack = adversary(AdversaryStrategy::Targeted {
            kills: 20,
            focus: 1.0,
        });
        let b = run(&benign);
        let a = run(&attack);
        assert_eq!(a.len(), 4);
        // Same seeds: identical baseline, strictly worse under attack.
        assert_eq!(b[0].decoded_levels.mean, a[0].decoded_levels.mean);
        assert!(
            a[3].decoded_levels.mean < b[3].decoded_levels.mean,
            "attack {} vs benign {}",
            a[3].decoded_levels.mean,
            b[3].decoded_levels.mean
        );
        // Survival frequencies are monotone non-increasing in the level
        // index within every epoch.
        for e in &a {
            for k in 1..e.survival.len() {
                assert!(e.survival[k] <= e.survival[k - 1] + 1e-12);
            }
        }
    }

    #[test]
    fn eclipse_suppresses_collection_but_not_storage() {
        let out = run(&adversary(AdversaryStrategy::Eclipse { loss: 1.0 }));
        // Baseline (pre-arm) decodes fine; post-arm the collector is cut
        // off from every cache but itself.
        assert!(
            out[0].decoded_levels.mean > 2.5,
            "{}",
            out[0].decoded_levels.mean
        );
        assert!(
            out[1].decoded_levels.mean < 1.0,
            "{}",
            out[1].decoded_levels.mean
        );
    }

    #[test]
    fn adversary_is_deterministic_across_threads() {
        let scenario = adversary(AdversaryStrategy::Region {
            fraction: 0.1,
            segment_len: 3,
        });
        let a = scenario.run::<Gf256>(1).expect("sweep");
        let b = scenario.run::<Gf256>(4).expect("sweep");
        assert_eq!(results_json(&a), results_json(&b));
    }

    #[test]
    fn failed_deployment_errors_or_scores_zero() {
        // A distribution whose level count disagrees with the profile
        // fails predistribution in every run.
        let broken = Scenario {
            distribution: PriorityDistribution::uniform(2),
            ..adversary(AdversaryStrategy::Creep { per_epoch: 0.1 })
        };
        let rows = run(&broken);
        assert_eq!(rows.len(), 4);
        assert!(rows
            .iter()
            .all(|r| r.decoded_levels.mean == 0.0 && r.survival == [0.0; 3]));
        // Without an adversary the same failure is the scenario's error.
        let strict = Scenario {
            distribution: PriorityDistribution::uniform(2),
            ..timeline(None).scenario()
        };
        assert_eq!(
            strict.run::<Gf256>(1).unwrap_err(),
            ProtocolError::LevelMismatch
        );
    }

    #[test]
    fn grid_has_shape_and_row_major_cells() {
        let rows = run(&lossy(&[0.0, 0.5], &[0, 2]));
        let cells: Vec<_> = rows.iter().map(|r| r.cell).collect();
        assert_eq!(
            cells,
            [
                Some((0.0, 0)),
                Some((0.0, 2)),
                Some((0.5, 0)),
                Some((0.5, 2))
            ]
        );
        assert!(rows.iter().all(|r| r.epoch == 0 && r.accounting.len() == 6));
    }

    #[test]
    fn zero_loss_matches_fault_free_collection() {
        let rows = run(&lossy(&[0.0], &[0]));
        // 4x overhead and mild node failure: everything decodes, and the
        // fault layer reports a silent transport.
        assert!(
            rows[0].decoded_levels.mean > 2.5,
            "{}",
            rows[0].decoded_levels.mean
        );
        for field in [
            "lost_messages",
            "retries_spent",
            "gave_up",
            "unreachable_nodes",
        ] {
            assert_eq!(accounting(&rows[0], field), 0.0, "{field}");
        }
    }

    #[test]
    fn loss_degrades_and_retries_recover() {
        // Nonzero loss measurably hurts decoded levels, and a retry
        // budget buys a measurable part of them back.
        let rows = run(&Scenario {
            runs: 20,
            ..lossy(&[0.0, 0.6], &[0, 4])
        });
        let clean = rows[0].decoded_levels.mean;
        let lossy = rows[2].decoded_levels.mean;
        let retried = rows[3].decoded_levels.mean;
        assert!(
            lossy < clean - 0.3,
            "loss did not degrade: {lossy} vs {clean}"
        );
        assert!(
            retried > lossy + 0.3,
            "retries did not recover: {retried} vs {lossy}"
        );
        // Accounting: the lossy cells actually lost traffic, and the
        // retried cell spent retransmissions.
        assert!(accounting(&rows[2], "lost_messages") > 0.0);
        assert!(accounting(&rows[3], "retries_spent") > 0.0);
        assert!(accounting(&rows[2], "gave_up") > 0.0);
        assert_eq!(accounting(&rows[2], "retries_spent"), 0.0);
    }

    #[test]
    fn grid_is_deterministic_and_thread_independent() {
        let scenario = lossy(&[0.3], &[1]);
        let a = scenario.run::<Gf256>(1).expect("sweep");
        let b = scenario.run::<Gf256>(4).expect("sweep");
        assert_eq!(results_json(&a), results_json(&b));
    }

    #[test]
    fn results_json_keys_rows_by_epoch_or_cell() {
        let s = Summary {
            mean: 1.5,
            ci95: 0.25,
            n: 2,
        };
        let row = |cell, survival: &[f64], accounting: &[f64]| Row {
            epoch: 1,
            cell,
            decoded_levels: s,
            survival: survival.to_vec(),
            accounting: accounting.to_vec(),
        };
        assert_eq!(
            results_json(&[row(None, &[], &[]), row(None, &[1.0, 0.5], &[])]),
            "[{\"epoch\":1,\"levels_mean\":1.500000,\"levels_ci95\":0.250000},\
             {\"epoch\":1,\"levels_mean\":1.500000,\"levels_ci95\":0.250000,\
             \"survival\":[1.000000,0.500000]}]"
        );
        assert_eq!(
            results_json(&[row(Some((0.3, 2)), &[], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])]),
            "[{\"loss\":0.3000,\"retries\":2,\"levels_mean\":1.500000,\
             \"levels_ci95\":0.250000,\"blocks_collected\":1.000,\
             \"lost_messages\":2.000,\"retries_spent\":3.000,\
             \"unreachable_nodes\":4.000,\"gave_up\":5.000,\"query_hops\":6.000}]"
        );
        assert_eq!(results_json(&[]), "[]");
    }
}
