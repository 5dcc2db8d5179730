//! Node mobility.
//!
//! The paper's framework is explicitly built for "network dynamics
//! (node failures, changes in connectivity among nodes due to
//! mobility, environmental conditions etc)". This module provides the
//! standard *random waypoint* model so experiments can exercise the
//! snapshot's self-healing under movement: each node walks toward a
//! uniformly random waypoint in the unit square at a fixed speed and
//! picks a new waypoint on arrival.
//!
//! Each move is an O(d) incremental update of the grid-indexed
//! topology (`Topology::set_position`, DESIGN.md §14) — a mobility
//! tick costs O(N·d), not the O(N²) the pre-grid per-move re-scan
//! implied, which is what lets the `scale` experiment run mobility at
//! 10k+ nodes.

use crate::node::NodeId;
use crate::rng::derive_seed;
use crate::rng::DetRng;
use crate::rng::RngExt;
use crate::sim::Network;
use crate::topology::Position;

/// Random-waypoint mobility over the unit square.
#[derive(Debug)]
pub struct RandomWaypoint {
    waypoints: Vec<Position>,
    speed: f64,
    rng: DetRng,
}

impl RandomWaypoint {
    /// A model for `n` nodes moving `speed` distance units per tick.
    ///
    /// # Panics
    /// Panics when `speed` is negative (an experiment-definition
    /// error; `0.0` is allowed and freezes everyone).
    pub fn new(n: usize, speed: f64, seed: u64) -> Self {
        assert!(speed >= 0.0, "speed must be non-negative, got {speed}");
        let mut rng = DetRng::seed_from_u64(derive_seed(seed, 0x30B1));
        let waypoints = (0..n)
            .map(|_| Position::new(rng.random_f64(), rng.random_f64()))
            .collect();
        RandomWaypoint {
            waypoints,
            speed,
            rng,
        }
    }

    /// The node's current waypoint.
    pub fn waypoint(&self, id: NodeId) -> Position {
        self.waypoints[id.index()]
    }

    /// Advance every alive node one tick toward its waypoint,
    /// re-rolling waypoints on arrival. Returns how many nodes moved.
    /// Each move registers a mobility wake for the node, and the id
    /// loop is index-driven — a mobility tick performs no per-tick
    /// id-list allocation. (The per-move hot path, `move_node` →
    /// `set_position`, is allocation-free once warm; DESIGN.md §15.)
    pub fn step<P: Clone>(&mut self, net: &mut Network<P>) -> usize {
        if self.speed == 0.0 {
            return 0;
        }
        let mut moved = 0;
        for i in 0..net.len() {
            let id = NodeId::from_index(i);
            if !net.is_alive(id) {
                continue;
            }
            let pos = net.topology().position(id);
            let target = self.waypoints[id.index()];
            let dist = pos.distance(&target);
            let new_pos = if dist <= self.speed {
                // Arrived: snap to the waypoint and pick the next one.
                self.waypoints[id.index()] =
                    Position::new(self.rng.random_f64(), self.rng.random_f64());
                target
            } else {
                let f = self.speed / dist;
                Position::new(
                    pos.x + (target.x - pos.x) * f,
                    pos.y + (target.y - pos.y) * f,
                )
            };
            net.move_node(id, new_pos);
            moved += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;
    use crate::link::LinkModel;
    use crate::topology::Topology;

    fn net(n: usize, seed: u64) -> Network<u8> {
        let topo = Topology::random_uniform(n, 0.3, seed).expect("valid deployment");
        Network::new(topo, LinkModel::Perfect, EnergyModel::default(), seed)
    }

    #[test]
    fn nodes_move_toward_their_waypoints() {
        let mut net = net(10, 1);
        let mut mob = RandomWaypoint::new(10, 0.05, 2);
        let before: Vec<_> = net.node_ids().map(|i| net.topology().position(i)).collect();
        let d_before: Vec<f64> = net
            .node_ids()
            .map(|i| net.topology().position(i).distance(&mob.waypoint(i)))
            .collect();
        let moved = mob.step(&mut net);
        assert_eq!(moved, 10);
        for (i, id) in net.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
            let now = net.topology().position(id);
            let d_now = now.distance(&mob.waypoint(id));
            // Either it advanced toward the waypoint or it arrived and
            // re-rolled (in which case it sits exactly on the old one).
            assert!(
                d_now < d_before[i] || now.distance(&before[i]) <= 0.05 + 1e-12,
                "node {id} did not advance"
            );
        }
    }

    #[test]
    fn speed_bounds_per_tick_displacement() {
        let mut net = net(20, 3);
        let mut mob = RandomWaypoint::new(20, 0.02, 4);
        for _ in 0..50 {
            let before: Vec<_> = net.node_ids().map(|i| net.topology().position(i)).collect();
            mob.step(&mut net);
            for (i, id) in net.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
                let d = net.topology().position(id).distance(&before[i]);
                assert!(d <= 0.02 + 1e-12, "node {id} jumped {d}");
            }
        }
    }

    #[test]
    fn zero_speed_freezes_everyone() {
        let mut net = net(5, 5);
        let mut mob = RandomWaypoint::new(5, 0.0, 6);
        let before: Vec<_> = net.node_ids().map(|i| net.topology().position(i)).collect();
        assert_eq!(mob.step(&mut net), 0);
        for (i, id) in net.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
            assert_eq!(net.topology().position(id), before[i]);
        }
    }

    #[test]
    fn dead_nodes_stay_put() {
        let mut net = net(5, 7);
        net.kill(crate::NodeId(0));
        let before = net.topology().position(crate::NodeId(0));
        let mut mob = RandomWaypoint::new(5, 0.1, 8);
        mob.step(&mut net);
        assert_eq!(net.topology().position(crate::NodeId(0)), before);
    }

    #[test]
    fn movement_changes_connectivity_over_time() {
        let mut net = net(30, 9);
        let mut mob = RandomWaypoint::new(30, 0.05, 10);
        let neighbors_before: Vec<usize> = net
            .node_ids()
            .map(|i| net.topology().neighbors(i).len())
            .collect();
        for _ in 0..30 {
            mob.step(&mut net);
        }
        let neighbors_after: Vec<usize> = net
            .node_ids()
            .map(|i| net.topology().neighbors(i).len())
            .collect();
        assert_ne!(
            neighbors_before, neighbors_after,
            "connectivity never changed"
        );
    }
}
