//! A Chord-like ring DHT (Stoica et al., SIGCOMM 2001) — the P2P
//! instantiation of the paper's geometric network.
//!
//! Nodes hold random 64-bit IDs on a ring; the owner of a point is its
//! *successor* (first node ID at or clockwise-after the point). Routing
//! takes the classic `O(log W)` greedy finger steps — `finger[k]` =
//! successor of `id + 2^k` — over the sorted alive-ID array instead of
//! materialised finger tables, which keeps memory O(N) rather than
//! O(N·64) and lets simulations run at N=10⁵–10⁶:
//!
//! - **The ring is two parallel arrays**: the alive IDs in ascending
//!   order (`u64`) and the dense node index at each position (`u32`),
//!   12 bytes per node. The binary searches read only the IDs.
//! - **A hop is two binary searches.** Fingers advance monotonically in
//!   `k`, so the best one is fixed by the last alive node before the
//!   target: if it lies `d` clockwise of the current node, the hop is
//!   `finger[⌊log2 d⌋]`.
//! - **Liveness is a bitset**, one bit per dense index (12.5 KiB at
//!   N=10⁵, so it stays in L1). Failure walks each word's set bits in
//!   index order and clears a whole word's kills with one store; uniform
//!   churn still draws exactly one coin per alive node, in index order,
//!   so the random stream is the one a per-node loop would consume. The
//!   coin is one integer compare against a threshold computed once per
//!   churn call.
//! - **Stabilisation is O(N).** After failures both arrays are
//!   compacted down to the survivors (nodes never revive, so they stay
//!   sorted) by one branch-free write-then-advance pass over the bitset,
//!   modelling Chord's stabilisation protocol having converged before
//!   the next operation.
//! - **Construction is a counting sort** of the drawn IDs, which is also
//!   the initial stabilisation: `(id, index)` pairs are scattered in
//!   index order into buckets keyed by the IDs' top `⌊log2 N⌋+1` bits,
//!   about one ID per bucket. Buckets longer than 16 are
//!   comparison-sorted and one insertion pass fixes up the rest, so the
//!   result is exactly the fully sorted pair array, in O(N log N) even
//!   when all IDs cluster in one bucket.

use rand::distributions::{Bernoulli, Distribution};
use rand::Rng;

use crate::network::{Network, NodeId, Route};

const ID_BITS: usize = 64;
/// Safety bound on lookup path length (Chord takes `O(log W)` hops; this
/// only trips on internal inconsistencies).
const MAX_HOPS: usize = 4 * ID_BITS;

/// Whether bit `i` of the bitset `bits` is set.
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// A bitset with bits `0..n` set.
fn full_bitset(n: usize) -> Vec<u64> {
    let mut bits = vec![u64::MAX; n / 64];
    let tail = n % 64;
    if tail != 0 {
        bits.push((1u64 << tail) - 1);
    }
    bits
}

/// Longest bucket the construction sort leaves to its insertion pass.
/// Longer buckets are comparison-sorted first, so a ring whose IDs all
/// share one bucket still sorts in O(N log N).
const INSERTION_MAX: u32 = 16;

/// The IDs in ascending order, and at each position the index of the ID
/// there. A counting sort on the IDs' top `⌊log2 N⌋+1` bits scatters the
/// `(id, index)` pairs in index order, which leaves most buckets with at
/// most one ID. Buckets longer than [`INSERTION_MAX`] are then sorted by
/// comparison, and one insertion pass over the whole array fixes up the
/// rest: it moves an ID only within its own bucket, so no ID moves more
/// than `INSERTION_MAX` places. Both sorts keep equal IDs in index
/// order, so the result is the order one comparison sort of all
/// `(ids[i], i)` pairs would give, byte for byte.
fn sorted_ring(ids: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let n = ids.len();
    let shift = 63 - n.ilog2();
    // The output is allocated before the bucket counts: a whole N=10^5
    // simulation measured a lower peak RSS in this order than the other.
    let mut ring = vec![0u64; n];
    let mut node_at = vec![0u32; n];
    let mut ends = vec![0u32; 1 << (64 - shift)];
    for &id in ids {
        ends[(id >> shift) as usize] += 1;
    }
    let mut start = 0;
    let mut longest = 0;
    for count in &mut ends {
        let len = *count;
        longest = longest.max(len);
        *count = start;
        start += len;
    }
    // `ends[b]` holds bucket `b`'s start; the scatter moves it to the end.
    for (i, &id) in ids.iter().enumerate() {
        let slot = &mut ends[(id >> shift) as usize];
        ring[*slot as usize] = id;
        node_at[*slot as usize] = i as u32;
        *slot += 1;
    }
    if longest > INSERTION_MAX {
        let mut start = 0;
        for &end in &ends {
            if end - start > INSERTION_MAX {
                let bucket = start as usize..end as usize;
                let mut pairs: Vec<(u64, u32)> = ring[bucket.clone()]
                    .iter()
                    .copied()
                    .zip(node_at[bucket.clone()].iter().copied())
                    .collect();
                pairs.sort_unstable();
                for (p, (id, node)) in bucket.zip(pairs) {
                    ring[p] = id;
                    node_at[p] = node;
                }
            }
            start = end;
        }
    }
    for j in 1..n {
        let id = ring[j];
        if ring[j - 1] <= id {
            continue;
        }
        let node = node_at[j];
        let mut k = j;
        while k > 0 && ring[k - 1] > id {
            ring[k] = ring[k - 1];
            node_at[k] = node_at[k - 1];
            k -= 1;
        }
        ring[k] = id;
        node_at[k] = node;
    }
    (ring, node_at)
}

/// A simulated Chord-like ring overlay.
#[derive(Debug, Clone)]
pub struct RingNetwork {
    /// Node IDs on the ring, indexed by dense `NodeId`.
    ids: Vec<u64>,
    /// Liveness bitset: bit `i % 64` of word `i / 64` is node `i`.
    alive: Vec<u64>,
    alive_count: usize,
    /// Alive nodes' IDs, ascending: the ring the binary searches read.
    ring: Vec<u64>,
    /// The dense index of the node at each position of `ring`.
    node_at: Vec<u32>,
}

impl RingNetwork {
    /// Creates a ring of `nodes` peers with distinct random IDs: the
    /// first `nodes` distinct values the generator yields, in draw order.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `nodes > u32::MAX`.
    pub fn new<R: Rng + ?Sized>(nodes: usize, rng: &mut R) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        assert!(
            u32::try_from(nodes).is_ok(),
            "a ring holds at most u32::MAX nodes, got {nodes}"
        );
        let mut ids: Vec<u64> = Vec::with_capacity(nodes);
        loop {
            let deficit = nodes - ids.len();
            ids.extend((0..deficit).map(|_| rng.gen::<u64>()));
            // Sorting is the initial stabilisation, and it puts equal IDs
            // side by side, earliest draw first.
            let (ring, node_at) = sorted_ring(&ids);
            if ring.windows(2).all(|pair| pair[0] != pair[1]) {
                return RingNetwork {
                    ids,
                    alive: full_bitset(nodes),
                    alive_count: nodes,
                    ring,
                    node_at,
                };
            }
            // A repeated draw: keep each ID's first draw, in draw order,
            // and redraw only the deficit.
            let mut kept: Vec<u32> = (0..nodes)
                .filter(|&p| p == 0 || ring[p] != ring[p - 1])
                .map(|p| node_at[p])
                .collect();
            kept.sort_unstable();
            ids = kept.iter().map(|&i| ids[i as usize]).collect();
        }
    }

    /// The ring ID of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn id_of(&self, node: NodeId) -> u64 {
        self.ids[node.index()]
    }

    /// Drops crashed nodes from the successor structure (Chord
    /// stabilisation, assumed converged). Fingers are derived from it on
    /// demand during routing, so this is the whole rebuild: one O(N)
    /// compaction of the already-sorted array. Every entry is written to
    /// the next free slot and the slot advances only if the node is
    /// alive, so the pass has no data-dependent branch.
    ///
    /// Precondition: nodes only ever die. A node that came back would be
    /// missing from `ring`.
    fn stabilize(&mut self) {
        let mut kept = 0;
        for r in 0..self.ring.len() {
            let (id, node) = (self.ring[r], self.node_at[r]);
            self.ring[kept] = id;
            self.node_at[kept] = node;
            kept += usize::from(bit(&self.alive, node as usize));
        }
        self.ring.truncate(kept);
        self.node_at.truncate(kept);
        debug_assert_eq!(self.ring.len(), self.alive_count);
    }

    /// Fails every alive node whose ID satisfies `dies`, asking about
    /// each alive node exactly once, in index order, then stabilises.
    /// Returns the number killed.
    fn fail_where(&mut self, mut dies: impl FnMut(u64) -> bool) -> usize {
        let mut killed = 0;
        for (word, ids) in self.alive.iter_mut().zip(self.ids.chunks(64)) {
            let mut rest = *word;
            let mut kills = 0u64;
            while rest != 0 {
                let b = rest.trailing_zeros();
                kills |= u64::from(dies(ids[b as usize])) << b;
                rest &= rest - 1;
            }
            *word &= !kills;
            killed += kills.count_ones() as usize;
        }
        self.alive_count -= killed;
        self.stabilize();
        killed
    }

    /// Dense index of the alive successor of `point` (first alive ID at
    /// or after `point`, wrapping). Binary search over the sorted
    /// alive-ID array.
    ///
    /// # Panics
    ///
    /// Panics if no node is alive.
    fn successor(&self, point: u64) -> usize {
        assert!(!self.ring.is_empty(), "no alive nodes");
        let i = self.ring.partition_point(|&id| id < point);
        let i = if i == self.ring.len() { 0 } else { i };
        self.node_at[i] as usize
    }

    /// Clockwise distance from `a` to `b` on the ring.
    fn clockwise(a: u64, b: u64) -> u64 {
        b.wrapping_sub(a)
    }

    /// One greedy Chord step from the alive node `current` toward
    /// `point`: the finger that makes the most clockwise progress without
    /// overshooting the point, falling back to `owner` (the direct
    /// successor) when no finger precedes the target.
    ///
    /// `finger[k] = successor(id + 2^k)` is the first alive node at least
    /// `2^k` clockwise of `current` (or `current` itself once that passes
    /// the whole ring), so fingers advance monotonically in `k`. Let `q`
    /// be the last alive node in `(current, point]`, `d` clockwise of
    /// `current`. `finger[k]` stays within the target iff `2^k <= d`, so
    /// the best finger is `finger[⌊log2 d⌋]`: two binary searches in all.
    fn greedy_next(&self, current: usize, point: u64, owner: usize) -> usize {
        let cur_id = self.ids[current];
        let i = self.ring.partition_point(|&id| id <= point);
        let i = if i == 0 { self.ring.len() } else { i };
        let (q_id, q) = (self.ring[i - 1], self.node_at[i - 1] as usize);
        if q == current {
            return owner;
        }
        let d = Self::clockwise(cur_id, q_id);
        self.successor(cur_id.wrapping_add(1u64 << d.ilog2()))
    }

    /// Every node index (alive or crashed) in clockwise ring-ID order:
    /// entry `p` is the node at ring position `p`. This is the adjacency
    /// a correlated regional outage crashes contiguous segments of.
    pub fn ring_order(&self) -> Vec<NodeId> {
        let mut order: Vec<usize> = (0..self.ids.len()).collect();
        order.sort_unstable_by_key(|&i| self.ids[i]);
        order.into_iter().map(NodeId::new).collect()
    }

    /// The distinct alive fingers of `node` — `successor(id + 2^k)` for
    /// `k` in `0..64`, deduplicated, excluding `node` itself. Every
    /// nonzero-hop greedy route from `node` leaves through this set
    /// (including the direct-successor fallback, which is `finger[0]`),
    /// making it the choke point a collector-eclipse adversary
    /// concentrates loss on.
    pub fn finger_neighborhood(&self, node: NodeId) -> Vec<NodeId> {
        let mut fingers = Vec::new();
        if self.ring.is_empty() {
            return fingers;
        }
        let cur_id = self.ids[node.index()];
        for k in 0..ID_BITS {
            let f = self.successor(cur_id.wrapping_add(1u64 << k));
            if f != node.index() && !fingers.contains(&NodeId::new(f)) {
                fingers.push(NodeId::new(f));
            }
        }
        fingers
    }

    /// First hop of the greedy route from `from` toward `point`: `None`
    /// when `from` owns the point (zero-hop route) or cannot route. The
    /// hop is always a member of `from`'s [finger
    /// neighborhood](Self::finger_neighborhood).
    pub fn first_hop(&self, from: NodeId, point: u64) -> Option<NodeId> {
        if !self.is_alive(from) || self.ring.is_empty() {
            return None;
        }
        let owner = self.successor(point);
        if owner == from.index() {
            return None;
        }
        Some(NodeId::new(self.greedy_next(from.index(), point, owner)))
    }

    /// Fails every alive node whose ID falls in the clockwise arc of
    /// `fraction` of the ring starting at `start` — a correlated-failure
    /// model (e.g. a region of the ID space assigned to one data centre
    /// going down). Returns the number killed.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn fail_arc(&mut self, start: u64, fraction: f64) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0,1], got {fraction}"
        );
        let span = (fraction * u64::MAX as f64) as u64;
        self.fail_where(|id| Self::clockwise(start, id) <= span)
    }
}

impl Network for RingNetwork {
    type Point = u64;

    fn node_count(&self) -> usize {
        self.ids.len()
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn is_alive(&self, node: NodeId) -> bool {
        assert!(node.index() < self.ids.len(), "node {node} out of range");
        bit(&self.alive, node.index())
    }

    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen()
    }

    /// The same draw and the same node as the trait's per-node scan, but
    /// the scan skips whole bitset words by their population count.
    fn random_alive_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        if self.alive_count == 0 {
            return None;
        }
        let mut target = rng.gen_range(0..self.alive_count);
        for (w, &word) in self.alive.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if target < ones {
                let mut rest = word;
                for _ in 0..target {
                    rest &= rest - 1;
                }
                return Some(NodeId::new(w * 64 + rest.trailing_zeros() as usize));
            }
            target -= ones;
        }
        None
    }

    fn owner_of(&self, point: u64) -> Option<NodeId> {
        if self.ring.is_empty() {
            return None;
        }
        Some(NodeId::new(self.successor(point)))
    }

    fn route(&self, from: NodeId, point: u64) -> Option<Route> {
        if !self.is_alive(from) || self.ring.is_empty() {
            return None;
        }
        let owner = self.successor(point);
        let mut current = from.index();
        let mut hops = 0usize;
        while current != owner {
            if hops > MAX_HOPS {
                return None; // inconsistent routing state
            }
            current = self.greedy_next(current, point, owner);
            hops += 1;
        }
        Some(Route {
            owner: NodeId::new(owner),
            hops,
        })
    }

    fn fail_uniform<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> usize {
        // The coin's threshold is computed once, not once per node.
        let Ok(coin) = Bernoulli::new(fraction) else {
            panic!("fraction must be in [0,1], got {fraction}");
        };
        self.fail_where(|_| coin.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn ring(n: usize, seed: u64) -> RingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        RingNetwork::new(n, &mut rng)
    }

    /// Reference constructor: sequential draws deduplicated through a
    /// `BTreeMap`, stabilised by a filter and a sort.
    fn new_by_btreemap<R: Rng + ?Sized>(nodes: usize, rng: &mut R) -> RingNetwork {
        let mut ids = Vec::with_capacity(nodes);
        let mut seen = std::collections::BTreeMap::new();
        while ids.len() < nodes {
            let id: u64 = rng.gen();
            if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(id) {
                e.insert(ids.len());
                ids.push(id);
            }
        }
        let mut net = RingNetwork {
            ids,
            alive: full_bitset(nodes),
            alive_count: nodes,
            ring: Vec::new(),
            node_at: Vec::new(),
        };
        (net.ring, net.node_at) = ring_from_scratch(&net);
        net
    }

    /// Reference stabilisation: filter the alive nodes, sort them by ID,
    /// and split the pairs into the ring and its node indices.
    fn ring_from_scratch(net: &RingNetwork) -> (Vec<u64>, Vec<u32>) {
        let mut sorted: Vec<(u64, usize)> = net
            .ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| bit(&net.alive, i))
            .map(|(i, &id)| (id, i))
            .collect();
        sorted.sort_unstable_by_key(|&(id, _)| id);
        sorted.into_iter().map(|(id, i)| (id, i as u32)).unzip()
    }

    /// The ring and node arrays, for comparison with [`ring_from_scratch`].
    fn ring_arrays(net: &RingNetwork) -> (Vec<u64>, Vec<u32>) {
        (net.ring.clone(), net.node_at.clone())
    }

    /// Reference greedy step: scan all 64 fingers, each found by its own
    /// binary search, for the one closest to `point` without passing it.
    fn greedy_next_scan(net: &RingNetwork, current: usize, point: u64, owner: usize) -> usize {
        let cur_id = net.ids[current];
        let dist = RingNetwork::clockwise(cur_id, point);
        let mut best = None;
        let mut best_remaining = dist;
        for k in 0..ID_BITS {
            let f = net.successor(cur_id.wrapping_add(1u64 << k));
            if f == current {
                continue;
            }
            let fid = net.ids[f];
            let advance = RingNetwork::clockwise(cur_id, fid);
            if advance > 0 && advance <= dist {
                let remaining = RingNetwork::clockwise(fid, point);
                if remaining < best_remaining {
                    best_remaining = remaining;
                    best = Some(f);
                }
            }
        }
        best.unwrap_or(owner)
    }

    /// `first_hop` over the reference step.
    fn first_hop_scan(net: &RingNetwork, from: NodeId, point: u64) -> Option<NodeId> {
        if !net.is_alive(from) || net.ring.is_empty() {
            return None;
        }
        let owner = net.successor(point);
        if owner == from.index() {
            return None;
        }
        Some(NodeId::new(greedy_next_scan(
            net,
            from.index(),
            point,
            owner,
        )))
    }

    /// `route` over the reference step.
    fn route_scan(net: &RingNetwork, from: NodeId, point: u64) -> Option<Route> {
        if !net.is_alive(from) || net.ring.is_empty() {
            return None;
        }
        let owner = net.successor(point);
        let mut current = from.index();
        let mut hops = 0usize;
        while current != owner {
            if hops > MAX_HOPS {
                return None;
            }
            current = greedy_next_scan(net, current, point, owner);
            hops += 1;
        }
        Some(Route {
            owner: NodeId::new(owner),
            hops,
        })
    }

    /// A generator confined to `alphabet` values spaced `stride` apart
    /// from `base`: a tiny alphabet forces repeated draws, a small stride
    /// clusters the ring into one short arc.
    #[derive(Clone, PartialEq, Debug)]
    struct Confined {
        inner: StdRng,
        base: u64,
        stride: u64,
        alphabet: u64,
    }

    impl RngCore for Confined {
        fn next_u64(&mut self) -> u64 {
            let k = self.inner.next_u64() % self.alphabet;
            self.base.wrapping_add(k.wrapping_mul(self.stride))
        }
    }

    /// Reference uniform churn: one coin per alive node of a per-node
    /// flag vector, in index order. Returns the number killed.
    fn fail_uniform_by_flags<R: Rng + ?Sized>(
        alive: &mut [bool],
        fraction: f64,
        rng: &mut R,
    ) -> usize {
        let mut killed = 0;
        for flag in alive.iter_mut() {
            if *flag && rng.gen_bool(fraction) {
                *flag = false;
                killed += 1;
            }
        }
        killed
    }

    /// Reference alive-node draw: the `Network` trait's default, which
    /// walks every node.
    fn random_alive_node_by_scan<R: Rng + ?Sized>(
        net: &RingNetwork,
        rng: &mut R,
    ) -> Option<NodeId> {
        if net.alive_count() == 0 {
            return None;
        }
        let target = rng.gen_range(0..net.alive_count());
        (0..net.node_count())
            .map(NodeId::new)
            .filter(|&node| net.is_alive(node))
            .nth(target)
    }

    /// Applies `steps` rounds of seeded uniform or arc failures, checking
    /// the incremental stabilisation against a from-scratch rebuild after
    /// each one.
    fn damage(net: &mut RingNetwork, seed: u64, steps: usize, fraction: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                net.fail_uniform(fraction, &mut rng);
            } else {
                let start = rng.gen();
                net.fail_arc(start, fraction / 2.0);
            }
            assert_eq!(ring_arrays(net), ring_from_scratch(net));
        }
    }

    /// Checks `first_hop` and `route` against the 64-finger scan for a
    /// spread of origins and points: random points, node IDs (alive and
    /// crashed) and their neighbours, and from each point's own owner.
    fn assert_matches_scan(net: &RingNetwork, seed: u64) {
        let n = net.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        for _ in 0..8 {
            let id = net.ids[rng.gen_range(0..n)];
            points.extend([id, id.wrapping_sub(1), id.wrapping_add(1)]);
        }
        points.extend([0, u64::MAX]);
        let origins: Vec<NodeId> = (0..6).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
        for &p in &points {
            for &from in origins.iter().chain(net.owner_of(p).as_ref()) {
                assert_eq!(
                    net.first_hop(from, p),
                    first_hop_scan(net, from, p),
                    "first hop from {from:?} to {p:x}"
                );
                assert_eq!(
                    net.route(from, p),
                    route_scan(net, from, p),
                    "route from {from:?} to {p:x}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn greedy_step_matches_finger_scan(
            nodes in 1usize..=300,
            seed in 0u64..10_000,
            steps in 0usize..4,
            fraction in 0.0f64..0.6,
        ) {
            let mut net = ring(nodes, seed);
            damage(&mut net, seed ^ 1, steps, fraction);
            assert_matches_scan(&net, seed ^ 2);
        }

        #[test]
        fn greedy_step_matches_finger_scan_on_clustered_ring(
            nodes in 1usize..=300,
            seed in 0u64..10_000,
            base in any::<u64>(),
            stride in 1u64..1_000,
            steps in 0usize..4,
            fraction in 0.0f64..0.6,
        ) {
            let mut rng = Confined {
                inner: StdRng::seed_from_u64(seed),
                base,
                stride,
                alphabet: 4 * nodes as u64,
            };
            let mut net = RingNetwork::new(nodes, &mut rng);
            damage(&mut net, seed ^ 1, steps, fraction);
            assert_matches_scan(&net, seed ^ 2);
        }

        #[test]
        fn construction_matches_btreemap_reference(
            nodes in prop_oneof![1usize..=200, 1usize..=3000],
            seed in 0u64..10_000,
            extra in 0u64..8,
            one_bucket in any::<bool>(),
            steps in 0usize..6,
            fraction in 0.0f64..0.6,
        ) {
            // An alphabet barely larger than the ring makes repeated
            // draws (and several redraw rounds) the common case. With
            // `one_bucket`, every ID shares its top 32 bits, so the
            // counting sort puts them all in one bucket. Past 200 nodes
            // the alphabet gets an eighth more values: repeats stay
            // common, but the last few draws no longer wait O(N) redraw
            // rounds for the few unused values.
            let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let slack = if nodes <= 200 { extra } else { extra + nodes as u64 / 8 };
            let mut rng = Confined {
                inner: StdRng::seed_from_u64(seed),
                base: if one_bucket { base & !0xFFFF_FFFF } else { base },
                stride: if one_bucket { 1 } else { 0x0123_4567_89AB_CDEF },
                alphabet: nodes as u64 + slack,
            };
            let mut reference_rng = rng.clone();
            let mut net = RingNetwork::new(nodes, &mut rng);
            let reference = new_by_btreemap(nodes, &mut reference_rng);
            prop_assert_eq!(&net.ids, &reference.ids);
            prop_assert_eq!(ring_arrays(&net), ring_arrays(&reference));
            prop_assert_eq!(&rng, &reference_rng);
            damage(&mut net, seed, steps, fraction);
        }

        #[test]
        fn random_alive_node_matches_per_node_scan(
            nodes in prop_oneof![1usize..=200, 1usize..=3000],
            seed in 0u64..10_000,
            steps in 0usize..4,
            fraction in 0.0f64..0.9,
        ) {
            let mut net = ring(nodes, seed);
            damage(&mut net, seed ^ 1, steps, fraction);
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            let mut reference_rng = rng.clone();
            for _ in 0..16 {
                let picked = net.random_alive_node(&mut rng);
                let reference = random_alive_node_by_scan(&net, &mut reference_rng);
                prop_assert_eq!(picked, reference);
                prop_assert_eq!(&rng, &reference_rng);
            }
        }

        #[test]
        fn fail_uniform_matches_per_node_reference(
            nodes in prop_oneof![1usize..=200, 1usize..=3000],
            seed in 0u64..10_000,
            steps in 1usize..4,
            fraction in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        ) {
            let mut net = ring(nodes, seed);
            let mut alive = vec![true; nodes];
            let mut rng = StdRng::seed_from_u64(seed ^ 3);
            let mut reference_rng = rng.clone();
            for _ in 0..steps {
                let killed = net.fail_uniform(fraction, &mut rng);
                let reference = fail_uniform_by_flags(&mut alive, fraction, &mut reference_rng);
                prop_assert_eq!(killed, reference);
                prop_assert_eq!(&rng, &reference_rng);
                for (i, &flag) in alive.iter().enumerate() {
                    prop_assert_eq!(net.is_alive(NodeId::new(i)), flag);
                }
                prop_assert_eq!(net.alive_count(), alive.iter().filter(|&&a| a).count());
                prop_assert_eq!(ring_arrays(&net), ring_from_scratch(&net));
            }
        }
    }

    #[test]
    fn one_bucket_ring_sorts_in_n_log_n() {
        // Every ID shares its top 32 bits, so the counting sort puts all
        // 2^18 of them in one bucket. An insertion pass over that bucket
        // would take about 2^35 steps (minutes in a debug build); the
        // comparison sort takes well under a second.
        let nodes = 1 << 18;
        let mut rng = Confined {
            inner: StdRng::seed_from_u64(13),
            base: 0x5EED_0000_0000_0000,
            stride: 1,
            alphabet: 1 << 32,
        };
        let mut reference_rng = rng.clone();
        let net = RingNetwork::new(nodes, &mut rng);
        let reference = new_by_btreemap(nodes, &mut reference_rng);
        assert_eq!(net.ids, reference.ids);
        assert_eq!(ring_arrays(&net), ring_arrays(&reference));
        assert_eq!(rng, reference_rng);
    }

    #[test]
    fn construction_basics() {
        let net = ring(50, 1);
        assert_eq!(net.node_count(), 50);
        assert_eq!(net.alive_count(), 50);
        assert!(net.is_alive(NodeId::new(0)));
    }

    #[test]
    fn owner_is_successor() {
        let net = ring(20, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let p = net.random_point(&mut rng);
            let owner = net.owner_of(p).unwrap();
            let oid = net.id_of(owner);
            // No alive node lies strictly between p and owner clockwise.
            for i in 0..20 {
                let nid = net.id_of(NodeId::new(i));
                if nid != oid {
                    assert!(
                        RingNetwork::clockwise(p, nid) > RingNetwork::clockwise(p, oid),
                        "node {nid:x} is a closer successor than {oid:x} for {p:x}"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_reaches_owner_with_log_hops() {
        let net = ring(500, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let from = net.random_alive_node(&mut rng).unwrap();
            let p = net.random_point(&mut rng);
            let r = net.route(from, p).expect("route must succeed");
            assert_eq!(Some(r.owner), net.owner_of(p));
            // O(log W): 2*log2(500) ~ 18; allow slack.
            assert!(r.hops <= 30, "hops = {}", r.hops);
        }
    }

    #[test]
    fn routing_to_own_point_is_zero_hops() {
        let net = ring(10, 6);
        let n = NodeId::new(3);
        let r = net.route(n, net.id_of(n)).unwrap();
        assert_eq!(r.owner, n);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn uniform_failure_kills_about_the_right_fraction() {
        let mut net = ring(1000, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let killed = net.fail_uniform(0.3, &mut rng);
        assert_eq!(net.alive_count(), 1000 - killed);
        assert!((200..400).contains(&killed), "killed {killed}");
        // Routing still works among the survivors.
        let from = net.random_alive_node(&mut rng).unwrap();
        let p = net.random_point(&mut rng);
        let r = net.route(from, p).unwrap();
        assert!(net.is_alive(r.owner));
    }

    #[test]
    fn fail_arc_kills_contiguous_ids() {
        let mut net = ring(400, 9);
        let killed = net.fail_arc(0, 0.25);
        // Random u64 ids: ~25% fall in the arc.
        assert!((60..140).contains(&killed), "killed {killed}");
        // All dead nodes are within the arc.
        for i in 0..400 {
            let id = net.id_of(NodeId::new(i));
            let in_arc = id <= (0.25 * u64::MAX as f64) as u64;
            assert_eq!(!net.is_alive(NodeId::new(i)), in_arc, "node {i}");
        }
    }

    #[test]
    fn total_failure_leaves_no_owner() {
        let mut net = ring(5, 10);
        net.fail_arc(0, 1.0);
        assert_eq!(net.alive_count(), 0);
        assert_eq!(net.owner_of(123), None);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(net.random_alive_node(&mut rng), None);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let net = ring(1, 11);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let p = net.random_point(&mut rng);
            assert_eq!(net.owner_of(p), Some(NodeId::new(0)));
            let r = net.route(NodeId::new(0), p).unwrap();
            assert_eq!(r.hops, 0);
        }
    }

    #[test]
    fn dead_origin_cannot_route() {
        let mut net = ring(10, 12);
        let mut rng = StdRng::seed_from_u64(3);
        // Kill one specific node by failing until it dies.
        while net.is_alive(NodeId::new(0)) {
            net.fail_uniform(0.2, &mut rng);
        }
        assert_eq!(net.route(NodeId::new(0), 55), None);
    }
}
