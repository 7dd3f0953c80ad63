//! A 2D unit-square sensor field with unit-disk radio links and greedy
//! geographic routing — the sensor-network instantiation of the paper's
//! geometric network.
//!
//! Routing is GPSR-flavoured (Karp & Kung, MOBICOM 2000): greedy
//! forwarding to the neighbour closest to the destination point; when a
//! packet reaches a local minimum (a void), GPSR switches to perimeter
//! mode. Full perimeter routing requires planarising the graph; as a
//! behaviour-preserving substitute this simulation escapes voids with a
//! hop-counted breadth-first detour to the nearest node that is strictly
//! closer to the destination — like perimeter mode, it trades extra hops
//! for guaranteed delivery within a connected component (see DESIGN.md,
//! substitutions).

use rand::Rng;
use std::collections::VecDeque;

use crate::network::{Network, NodeId, Route};

/// A point in the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanePoint {
    /// Horizontal coordinate in `[0, 1)`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1)`.
    pub y: f64,
}

impl PlanePoint {
    /// Euclidean distance to `other`.
    pub fn distance(self, other: PlanePoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A simulated sensor deployment on the unit square.
#[derive(Debug, Clone)]
pub struct PlaneNetwork {
    positions: Vec<PlanePoint>,
    radius: f64,
    /// Static unit-disk adjacency (computed once; failures filter it).
    neighbors: Vec<Vec<usize>>,
    alive: Vec<bool>,
    alive_count: usize,
}

impl PlaneNetwork {
    /// Deploys `nodes` sensors uniformly at random with the given radio
    /// `radius`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `radius` is not positive.
    pub fn new<R: Rng + ?Sized>(nodes: usize, radius: f64, rng: &mut R) -> Self {
        assert!(nodes > 0, "a deployment needs at least one node");
        assert!(radius > 0.0, "radio radius must be positive");
        let positions: Vec<PlanePoint> = (0..nodes)
            .map(|_| PlanePoint {
                x: rng.gen(),
                y: rng.gen(),
            })
            .collect();

        // Grid binning keeps neighbour discovery near-linear.
        let cell = radius.max(1e-6);
        let cells_per_side = (1.0 / cell).ceil().max(1.0) as usize;
        let cell_of = |p: PlanePoint| -> (usize, usize) {
            (
                ((p.x / cell) as usize).min(cells_per_side - 1),
                ((p.y / cell) as usize).min(cells_per_side - 1),
            )
        };
        let mut grid = vec![Vec::new(); cells_per_side * cells_per_side];
        for (i, &p) in positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            grid[cy * cells_per_side + cx].push(i);
        }
        let mut neighbors = vec![Vec::new(); nodes];
        for (i, &p) in positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0
                        || ny < 0
                        || nx >= cells_per_side as i64
                        || ny >= cells_per_side as i64
                    {
                        continue;
                    }
                    for &j in &grid[ny as usize * cells_per_side + nx as usize] {
                        if j != i && p.distance(positions[j]) <= radius {
                            neighbors[i].push(j);
                        }
                    }
                }
            }
        }

        PlaneNetwork {
            positions,
            radius,
            neighbors,
            alive: vec![true; nodes],
            alive_count: nodes,
        }
    }

    /// Deploys `nodes` sensors with the standard connectivity radius
    /// `sqrt(c · ln W / W)` (`c = 2`), which keeps a uniform random
    /// deployment connected with high probability.
    pub fn with_connectivity_radius<R: Rng + ?Sized>(nodes: usize, rng: &mut R) -> Self {
        let w = nodes.max(2) as f64;
        let radius = (2.0 * w.ln() / w).sqrt().min(1.5);
        Self::new(nodes, radius, rng)
    }

    /// The deployed position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> PlanePoint {
        self.positions[node.index()]
    }

    /// The radio radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Kills every alive node within `radius` of `center` — a correlated
    /// regional failure (fire, flood, jamming). Returns the number
    /// killed.
    pub fn fail_disk(&mut self, center: PlanePoint, radius: f64) -> usize {
        let mut killed = 0;
        for i in 0..self.positions.len() {
            if self.alive[i] && self.positions[i].distance(center) <= radius {
                self.alive[i] = false;
                self.alive_count -= 1;
                killed += 1;
            }
        }
        killed
    }

    /// Whether the alive subgraph is connected (useful to validate
    /// deployments before experiments).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.alive.iter().position(|&a| a) else {
            return true; // vacuously
        };
        let mut seen = vec![false; self.positions.len()];
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &self.neighbors[u] {
                if self.alive[v] && !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.alive_count
    }

    /// Greedy step: the alive neighbour of `u` closest to `target`,
    /// if strictly closer than `u` itself.
    fn greedy_next(&self, u: usize, target: PlanePoint) -> Option<usize> {
        let here = self.positions[u].distance(target);
        let mut best = None;
        let mut best_d = here;
        for &v in &self.neighbors[u] {
            if !self.alive[v] {
                continue;
            }
            let d = self.positions[v].distance(target);
            if d < best_d {
                best_d = d;
                best = Some(v);
            }
        }
        best
    }

    /// Void escape: BFS from `u` over alive nodes to the nearest (in hop
    /// count) node strictly closer to `target` than `u`. Returns that
    /// node and the detour hop count.
    fn escape_void(&self, u: usize, target: PlanePoint) -> Option<(usize, usize)> {
        let here = self.positions[u].distance(target);
        let mut seen = vec![false; self.positions.len()];
        let mut queue = VecDeque::from([(u, 0usize)]);
        seen[u] = true;
        while let Some((v, depth)) = queue.pop_front() {
            for &w in &self.neighbors[v] {
                if !self.alive[w] || seen[w] {
                    continue;
                }
                seen[w] = true;
                if self.positions[w].distance(target) < here {
                    return Some((w, depth + 1));
                }
                queue.push_back((w, depth + 1));
            }
        }
        None
    }
}

impl Network for PlaneNetwork {
    type Point = PlanePoint;

    fn node_count(&self) -> usize {
        self.positions.len()
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> PlanePoint {
        PlanePoint {
            x: rng.gen(),
            y: rng.gen(),
        }
    }

    fn owner_of(&self, point: PlanePoint) -> Option<NodeId> {
        (0..self.positions.len())
            .filter(|&i| self.alive[i])
            .min_by(|&a, &b| {
                self.positions[a]
                    .distance(point)
                    .total_cmp(&self.positions[b].distance(point))
            })
            .map(NodeId::new)
    }

    fn route(&self, from: NodeId, point: PlanePoint) -> Option<Route> {
        if !self.alive[from.index()] {
            return None;
        }
        let owner = self.owner_of(point)?;
        let mut current = from.index();
        let mut hops = 0usize;
        // Greedy + void escape strictly shrinks the distance to `point`
        // each iteration, so this terminates; the bound is a backstop.
        let max_hops = 4 * self.positions.len() + 16;
        while current != owner.index() {
            if hops > max_hops {
                return None;
            }
            if let Some(next) = self.greedy_next(current, point) {
                current = next;
                hops += 1;
            } else if let Some((next, detour)) = self.escape_void(current, point) {
                current = next;
                hops += detour;
            } else {
                // No node in this component is closer: the true owner is
                // unreachable (network partition).
                return None;
            }
        }
        Some(Route { owner, hops })
    }

    fn fail_uniform<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0,1], got {fraction}"
        );
        let mut killed = 0;
        for i in 0..self.positions.len() {
            if self.alive[i] && rng.gen_bool(fraction) {
                self.alive[i] = false;
                self.alive_count -= 1;
                killed += 1;
            }
        }
        killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plane(n: usize, seed: u64) -> PlaneNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        PlaneNetwork::with_connectivity_radius(n, &mut rng)
    }

    #[test]
    fn deployment_basics() {
        let net = plane(200, 1);
        assert_eq!(net.node_count(), 200);
        assert_eq!(net.alive_count(), 200);
        assert!(net.radius() > 0.0);
        for i in 0..200 {
            let p = net.position(NodeId::new(i));
            assert!((0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y));
        }
    }

    #[test]
    fn connectivity_radius_yields_connected_graph() {
        // whp-connected; use fixed seeds known to produce connectivity.
        for seed in 1..=5 {
            let net = plane(300, seed);
            assert!(net.is_connected(), "seed {seed} disconnected");
        }
    }

    #[test]
    fn neighbors_are_symmetric_and_within_radius() {
        let net = plane(150, 2);
        for i in 0..150 {
            for &j in &net.neighbors[i] {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                let d = net.position(a).distance(net.position(b));
                assert!(d <= net.radius() + 1e-12);
                assert!(net.neighbors[j].contains(&i), "adjacency not symmetric");
            }
        }
    }

    #[test]
    fn owner_is_globally_nearest() {
        let net = plane(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let p = net.random_point(&mut rng);
            let owner = net.owner_of(p).unwrap();
            let d = net.position(owner).distance(p);
            for i in 0..100 {
                assert!(net.position(NodeId::new(i)).distance(p) >= d - 1e-12);
            }
        }
    }

    #[test]
    fn routing_reaches_owner() {
        let net = plane(300, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let from = net.random_alive_node(&mut rng).unwrap();
            let p = net.random_point(&mut rng);
            let r = net.route(from, p).expect("connected network must route");
            assert_eq!(Some(r.owner), net.owner_of(p));
        }
    }

    #[test]
    fn routing_after_failures_still_delivers_within_component() {
        let mut net = plane(400, 7);
        let mut rng = StdRng::seed_from_u64(8);
        net.fail_uniform(0.3, &mut rng);
        let mut delivered = 0;
        let mut attempts = 0;
        for _ in 0..100 {
            let Some(from) = net.random_alive_node(&mut rng) else {
                break;
            };
            let p = net.random_point(&mut rng);
            attempts += 1;
            if let Some(r) = net.route(from, p) {
                assert!(net.is_alive(r.owner));
                delivered += 1;
            }
        }
        // Most deliveries should still succeed at 30% failure.
        assert!(delivered * 2 > attempts, "{delivered}/{attempts}");
    }

    #[test]
    fn fail_disk_kills_the_region() {
        let mut net = plane(500, 9);
        let center = PlanePoint { x: 0.5, y: 0.5 };
        let killed = net.fail_disk(center, 0.2);
        assert!(killed > 0);
        for i in 0..500 {
            let id = NodeId::new(i);
            if net.position(id).distance(center) <= 0.2 {
                assert!(!net.is_alive(id));
            } else {
                assert!(net.is_alive(id));
            }
        }
    }

    #[test]
    fn partitioned_network_fails_gracefully() {
        // Two nodes placed manually far apart with a tiny radius.
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = PlaneNetwork::new(40, 0.01, &mut rng);
        // With radius 0.01 and 40 random nodes the graph is almost surely
        // heavily partitioned: many routes must return None rather than
        // loop forever.
        let mut failures = 0;
        for _ in 0..50 {
            let from = net.random_alive_node(&mut rng).unwrap();
            let p = net.random_point(&mut rng);
            if net.route(from, p).is_none() {
                failures += 1;
            }
        }
        assert!(failures > 0, "expected some unreachable owners");
        // And failing everyone leaves no owner.
        net.fail_disk(PlanePoint { x: 0.5, y: 0.5 }, 2.0);
        assert_eq!(net.alive_count(), 0);
        assert_eq!(net.owner_of(PlanePoint { x: 0.1, y: 0.1 }), None);
    }

    #[test]
    fn point_distance() {
        let a = PlanePoint { x: 0.0, y: 0.0 };
        let b = PlanePoint { x: 3.0, y: 4.0 };
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }
}
