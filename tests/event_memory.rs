//! The memory bound of the protocol sessions: per-node session state is
//! lazily instantiated, so a predistribution session over a sparse
//! deployment touches O(active nodes), not O(N).
//!
//! Checked through the `net.event.nodes_touched` counter (documented in
//! docs/METRICS.md): the number of nodes whose scratch state was
//! actually instantiated during the session. At N=10⁵ with a code-sized
//! location count this must stay bounded by the deployment, orders of
//! magnitude below the overlay size.

use prlc::net::{predistribute_with_faults, FaultPlan, ProtocolConfig, RingNetwork, SourceFanout};
use prlc::obs;
use prlc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn nodes_touched_is_bounded_by_active_set_at_n_100k() {
    obs::enable();
    obs::reset();
    let before = counter(&obs::snapshot(), "net.event.nodes_touched");

    const NODES: usize = 100_000;
    const LOCATIONS: usize = 60;
    let mut rng = StdRng::seed_from_u64(42);
    let net = RingNetwork::new(NODES, &mut rng);
    let profile = PriorityProfile::new(vec![2, 3, 5]).unwrap();
    let sources: Vec<Vec<Gf256>> = vec![Vec::new(); profile.total_blocks()];
    let mut session = FaultPlan::none().session(NODES);
    let dep = predistribute_with_faults(
        &net,
        &ProtocolConfig {
            scheme: Scheme::Plc,
            profile,
            distribution: PriorityDistribution::uniform(3),
            locations: LOCATIONS,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: 42,
        },
        &sources,
        &mut session,
        &mut rng,
    )
    .expect("fresh network accepts the protocol");
    assert_eq!(dep.slots().len(), LOCATIONS);

    let touched = counter(&obs::snapshot(), "net.event.nodes_touched") - before;
    assert!(touched > 0, "session instantiated no node state at all");
    // Each location instantiates at most one owner's scratch state
    // (two-choices *reads* both candidates but only materialises the
    // winner), so the bound is the deployment size — not the overlay.
    assert!(
        touched <= LOCATIONS as u64,
        "touched {touched} nodes for {LOCATIONS} locations"
    );
    assert!(
        (touched as usize) * 100 <= NODES,
        "lazy instantiation failed: touched {touched} of {NODES} nodes"
    );
}
