//! Node placement and radio connectivity.
//!
//! The paper places `N = 100` nodes uniformly at random in the unit
//! square `[0,1) x [0,1)` and models the radio as a unit disk: node `A`
//! can transmit directly to node `B` iff their Euclidean distance is at
//! most the transmission range. Neighborhood is *not* assumed
//! symmetric by the protocols, but the unit-disk model itself is; the
//! simulator keeps per-link asymmetry in the loss model instead.

use crate::error::NetsimError;
use crate::grid::GridIndex;
use crate::node::{NodeId, NodeSet};
use crate::rng::derive_seed;
use crate::rng::DetRng;
use crate::rng::RngExt;
use std::collections::VecDeque;

/// A point in the deployment area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Position {
    /// Construct a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    #[inline]
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// True when the position lies inside the axis-aligned rectangle
    /// `[x0, x1] x [y0, y1]`.
    #[inline]
    pub fn in_rect(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> bool {
        self.x >= x0 && self.x <= x1 && self.y >= y0 && self.y <= y1
    }
}

/// Static deployment: node positions plus the radio's transmission range.
///
/// Neighbor lists are precomputed through a uniform-grid spatial index
/// ([`GridIndex`], cell side = range): construction scans only the
/// 3×3 cell neighborhood of each node — O(N·d) for mean degree d
/// instead of the old all-pairs O(N²) — which is what lets the `scale`
/// experiment sweep the paper's §6 sensitivity analysis at 10k–100k
/// nodes. Lookups during the protocols stay O(1) per neighbor.
///
/// **Ordering contract:** each freshly built neighbor slice is sorted
/// ascending by [`NodeId`] (exactly the order the all-pairs scan
/// produced), and [`Topology::set_position`] preserves the historical
/// incremental semantics — the moved node's own slice is rebuilt
/// sorted, while in every *other* affected slice the moved node is
/// appended on entry and spliced out on exit, leaving the survivors'
/// relative order untouched. Experiment traces and CSVs are
/// byte-identical to the pre-grid implementation.
///
/// ```
/// use snapshot_netsim::Topology;
///
/// // The paper's deployment: 100 nodes in the unit square; range
/// // sqrt(2) makes the radio graph complete.
/// let topo = Topology::random_uniform(100, std::f64::consts::SQRT_2, 42)
///     .expect("valid deployment");
/// assert!(topo.is_connected());
/// assert_eq!(topo.neighbors(snapshot_netsim::NodeId(0)).len(), 99);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    range: f64,
    neighbors: Vec<Vec<NodeId>>,
    grid: GridIndex,
    /// Reused candidate buffer: keeps [`Topology::set_position`]
    /// allocation-free in steady state (mobility runs every tick).
    scratch: Vec<NodeId>,
}

impl Topology {
    /// Build a topology from explicit positions.
    ///
    /// # Errors
    /// Returns [`NetsimError::InvalidParameter`] if `range` is not
    /// strictly positive or `positions` is empty.
    pub fn new(positions: Vec<Position>, range: f64) -> Result<Self, NetsimError> {
        if range.is_nan() || range <= 0.0 {
            return Err(NetsimError::InvalidParameter {
                name: "range",
                reason: format!("transmission range must be positive, got {range}"),
            });
        }
        if positions.is_empty() {
            return Err(NetsimError::InvalidParameter {
                name: "positions",
                reason: "at least one node is required".into(),
            });
        }
        let grid = GridIndex::build(&positions, range);
        let neighbors = Self::compute_neighbors(&positions, &grid, range);
        Ok(Topology {
            positions,
            range,
            neighbors,
            grid,
            scratch: Vec::new(),
        })
    }

    /// Rebuild a topology from previously captured parts: positions,
    /// range, and the neighbor lists *verbatim* — including any
    /// [`Topology::set_position`] append/splice history, which a fresh
    /// [`Topology::new`] would normalize back to sorted order. This is
    /// the checkpoint-restore constructor: BFS tree formation is
    /// neighbor-order-sensitive, so a faithful restore must preserve
    /// the exact slices, not just the edge set. The grid index is
    /// rebuilt from the positions (it is a pure function of them).
    ///
    /// # Errors
    /// Returns [`NetsimError::InvalidParameter`] if `range` is not
    /// strictly positive, `positions` is empty, or `neighbors` does not
    /// have exactly one list per node.
    pub fn from_parts(
        positions: Vec<Position>,
        range: f64,
        neighbors: Vec<Vec<NodeId>>,
    ) -> Result<Self, NetsimError> {
        if range.is_nan() || range <= 0.0 {
            return Err(NetsimError::InvalidParameter {
                name: "range",
                reason: format!("transmission range must be positive, got {range}"),
            });
        }
        if positions.is_empty() {
            return Err(NetsimError::InvalidParameter {
                name: "positions",
                reason: "at least one node is required".into(),
            });
        }
        if neighbors.len() != positions.len() {
            return Err(NetsimError::InvalidParameter {
                name: "neighbors",
                reason: format!(
                    "{} neighbor lists for {} nodes",
                    neighbors.len(),
                    positions.len()
                ),
            });
        }
        let grid = GridIndex::build(&positions, range);
        Ok(Topology {
            positions,
            range,
            neighbors,
            grid,
            scratch: Vec::new(),
        })
    }

    /// Place `n` nodes uniformly at random in `[0,1) x [0,1)`,
    /// reproducing the paper's deployment. Deterministic in `seed`.
    ///
    /// # Errors
    /// Returns [`NetsimError::InvalidParameter`] if `n == 0` or the
    /// range is not strictly positive — an empty or rangeless
    /// deployment would only panic later (e.g. in `tree.rs`), so it is
    /// rejected up front with a typed error instead.
    pub fn random_uniform(n: usize, range: f64, seed: u64) -> Result<Self, NetsimError> {
        if n == 0 {
            return Err(NetsimError::InvalidParameter {
                name: "n",
                reason: "at least one node is required".into(),
            });
        }
        let mut rng = DetRng::seed_from_u64(derive_seed(seed, 0xB10C));
        let positions = (0..n)
            .map(|_| Position::new(rng.random_f64(), rng.random_f64()))
            .collect();
        Self::new(positions, range)
    }

    /// Place `side * side` nodes on a regular grid covering the unit
    /// square. Useful for tests that need predictable neighborhoods.
    #[expect(
        clippy::expect_used,
        reason = "documented fail-fast on an invalid experiment definition"
    )]
    pub fn grid(side: usize, range: f64) -> Self {
        assert!(side > 0, "grid side must be positive");
        let step = 1.0 / side as f64;
        let mut positions = Vec::with_capacity(side * side);
        for row in 0..side {
            for col in 0..side {
                positions.push(Position::new(
                    (col as f64 + 0.5) * step,
                    (row as f64 + 0.5) * step,
                ));
            }
        }
        Self::new(positions, range).expect("invalid parameters for grid")
    }

    /// Build every neighbor slice from the grid: scan the 3×3 cell
    /// block around each node, keep the candidates that pass the exact
    /// distance predicate, and sort ascending by id — byte-identical
    /// to the retired all-pairs scan.
    fn compute_neighbors(positions: &[Position], grid: &GridIndex, range: f64) -> Vec<Vec<NodeId>> {
        let mut neighbors = vec![Vec::new(); positions.len()];
        let mut candidates: Vec<NodeId> = Vec::new();
        for (i, (p, own)) in positions.iter().zip(neighbors.iter_mut()).enumerate() {
            candidates.clear();
            grid.candidates_around(p, &mut candidates);
            for &j in &candidates {
                if j.index() != i && p.distance(&positions[j.index()]) <= range {
                    own.push(j);
                }
            }
            own.sort_unstable();
        }
        neighbors
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the topology holds no nodes (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The radio transmission range.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, id: NodeId) -> Position {
        self.positions[id.index()]
    }

    /// All node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(NodeId::from_index)
    }

    /// Nodes within transmission range of `id` (excluding `id` itself).
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.neighbors[id.index()]
    }

    /// True when `b` is within transmission range of `a`.
    #[inline]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.positions[a.index()].distance(&self.positions[b.index()]) <= self.range
    }

    /// Distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance(&self.positions[b.index()])
    }

    /// True when the radio graph is connected (ignoring loss).
    ///
    /// The paper notes that for 100 nodes a range below 0.2 "often
    /// results in parts of the network being disconnected"; experiments
    /// use this check to report or regenerate such deployments.
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut count = 1;
        while let Some(cur) = queue.pop_front() {
            for &nb in self.neighbors(cur) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    queue.push_back(nb);
                }
            }
        }
        count == n
    }

    /// The nodes whose position passes `keep`, in ascending id order,
    /// for a `keep` that holds only inside the box `[x0, x1] × [y0,
    /// y1]` (a NaN bound leaves its side open).
    ///
    /// Only the nodes the grid index buckets in cells overlapping the
    /// box are tested ([`GridIndex::candidates_in_box`]), and a bitset
    /// sweep puts them in id order, so the cost is O(occupied cells +
    /// candidates + N / 64), not a test of every node.
    pub fn nodes_within(&self, bbox: [f64; 4], keep: impl Fn(Position) -> bool) -> Vec<NodeId> {
        let mut found = NodeSet::new(self.len());
        self.grid.candidates_in_box(bbox, |id| {
            if keep(self.positions[id.index()]) {
                found.insert(id);
            }
        });
        found.to_vec()
    }

    /// Move a node to a new position, incrementally updating the
    /// affected neighbor lists through the grid index — O(d) for mean
    /// degree d, not O(N): only the 3×3 cell blocks around the old and
    /// new positions are visited.
    ///
    /// Every node whose list mentions `id` is within range of the old
    /// position (hence inside the old 3×3 block), and every node that
    /// must gain `id` is within range of the new position (hence inside
    /// the new block), so the union of the two scans covers every list
    /// that can change. Per the ordering contract, `id`'s own slice is
    /// rebuilt sorted while other slices get `id` appended on entry and
    /// spliced out on exit.
    pub fn set_position(&mut self, id: NodeId, pos: Position) {
        let old = self.positions[id.index()];
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        self.grid.candidates_around(&old, &mut candidates);
        if self.grid.cell_of(&pos) != self.grid.cell_of(&old) {
            self.grid.candidates_around(&pos, &mut candidates);
        }
        candidates.sort_unstable();
        candidates.dedup();
        self.positions[id.index()] = pos;
        self.grid.relocate(id, &old, &pos);
        let mut own = std::mem::take(&mut self.neighbors[id.index()]);
        own.clear();
        for &j in &candidates {
            if j == id {
                continue;
            }
            let in_range = pos.distance(&self.positions[j.index()]) <= self.range;
            if in_range {
                own.push(j);
            }
            let list = &mut self.neighbors[j.index()];
            let present = list.contains(&id);
            if in_range && !present {
                list.push(id);
            } else if !in_range && present {
                list.retain(|&n| n != id);
            }
        }
        self.neighbors[id.index()] = own;
        self.scratch = candidates;
    }

    /// Average neighborhood size — a density diagnostic used when
    /// interpreting range sweeps (Figure 9).
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: usize = self.neighbors.iter().map(Vec::len).sum();
        total as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rect_membership_is_inclusive() {
        let p = Position::new(0.5, 0.5);
        assert!(p.in_rect(0.5, 0.5, 1.0, 1.0));
        assert!(p.in_rect(0.0, 0.0, 0.5, 0.5));
        assert!(!p.in_rect(0.6, 0.0, 1.0, 1.0));
    }

    #[test]
    fn rejects_non_positive_range() {
        let err = Topology::new(vec![Position::new(0.0, 0.0)], 0.0).unwrap_err();
        assert!(matches!(
            err,
            NetsimError::InvalidParameter { name: "range", .. }
        ));
        let err = Topology::new(vec![Position::new(0.0, 0.0)], -1.0).unwrap_err();
        assert!(matches!(
            err,
            NetsimError::InvalidParameter { name: "range", .. }
        ));
    }

    #[test]
    fn rejects_empty_deployment() {
        let err = Topology::new(vec![], 1.0).unwrap_err();
        assert!(matches!(
            err,
            NetsimError::InvalidParameter {
                name: "positions",
                ..
            }
        ));
    }

    #[test]
    fn full_range_makes_everyone_neighbors() {
        // sqrt(2) covers the whole unit square, as in the paper's
        // first experiment.
        let topo =
            Topology::random_uniform(100, std::f64::consts::SQRT_2, 1).expect("valid deployment");
        for id in topo.node_ids() {
            assert_eq!(topo.neighbors(id).len(), 99);
        }
        assert!(topo.is_connected());
        assert!((topo.mean_degree() - 99.0).abs() < 1e-9);
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let a = Topology::random_uniform(50, 0.3, 9).expect("valid deployment");
        let b = Topology::random_uniform(50, 0.3, 9).expect("valid deployment");
        for id in a.node_ids() {
            assert_eq!(a.position(id), b.position(id));
        }
        let c = Topology::random_uniform(50, 0.3, 10).expect("valid deployment");
        let same = a.node_ids().all(|id| a.position(id) == c.position(id));
        assert!(!same, "different seeds should give different placements");
    }

    #[test]
    fn placement_stays_in_unit_square() {
        let topo = Topology::random_uniform(200, 0.3, 3).expect("valid deployment");
        for id in topo.node_ids() {
            let p = topo.position(id);
            assert!((0.0..1.0).contains(&p.x));
            assert!((0.0..1.0).contains(&p.y));
        }
    }

    #[test]
    fn grid_neighbors_are_orthogonal_at_tight_range() {
        // 3x3 grid with spacing 1/3; range 0.34 reaches only the
        // orthogonal neighbors.
        let topo = Topology::grid(3, 0.34);
        // center node index 4 has 4 neighbors
        assert_eq!(topo.neighbors(NodeId(4)).len(), 4);
        // corner node index 0 has 2 neighbors
        assert_eq!(topo.neighbors(NodeId(0)).len(), 2);
    }

    #[test]
    fn in_range_is_symmetric_and_irreflexive() {
        let topo = Topology::random_uniform(40, 0.4, 5).expect("valid deployment");
        for a in topo.node_ids() {
            assert!(!topo.in_range(a, a));
            for b in topo.node_ids() {
                assert_eq!(topo.in_range(a, b), topo.in_range(b, a));
            }
        }
    }

    #[test]
    fn disconnection_detected_at_tiny_range() {
        // With a tiny range and a few nodes, the graph is almost
        // surely disconnected.
        let topo = Topology::random_uniform(10, 0.01, 2).expect("valid deployment");
        assert!(!topo.is_connected());
    }

    #[test]
    fn moving_a_node_updates_neighborhoods_symmetrically() {
        let mut topo = Topology::grid(3, 0.34);
        // Move the corner node onto the center: it should now neighbor
        // exactly the center's orthogonal neighbors plus sit on top of
        // the center node itself.
        let center = topo.position(NodeId(4));
        topo.set_position(NodeId(0), center);
        assert!(topo.in_range(NodeId(0), NodeId(4)));
        assert!(topo.neighbors(NodeId(4)).contains(&NodeId(0)));
        assert!(topo.neighbors(NodeId(0)).contains(&NodeId(4)));
        // Symmetry for every pair after the move.
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                assert_eq!(topo.in_range(a, b), topo.in_range(b, a));
                assert_eq!(
                    topo.neighbors(a).contains(&b),
                    topo.in_range(a, b),
                    "neighbor list inconsistent for {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn moving_out_of_range_disconnects() {
        let mut topo = Topology::grid(2, 0.6);
        assert!(!topo.neighbors(NodeId(0)).is_empty());
        topo.set_position(NodeId(0), Position::new(10.0, 10.0));
        assert!(topo.neighbors(NodeId(0)).is_empty());
        for other in 1..4u32 {
            assert!(!topo.neighbors(NodeId(other)).contains(&NodeId(0)));
        }
    }

    #[test]
    fn nodes_in_rect_filters_by_position() {
        let mut topo = Topology::grid(4, 0.3);
        let in_rect = |b: [f64; 4]| move |p: Position| p.in_rect(b[0], b[1], b[2], b[3]);
        let left_half = [0.0, 0.0, 0.5, 1.0];
        let left: Vec<NodeId> = [0, 1, 4, 5, 8, 9, 12, 13].into_iter().map(NodeId).collect();
        assert_eq!(topo.nodes_within(left_half, in_rect(left_half)), left);
        let field = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(topo.nodes_within(field, in_rect(field)).len(), 16);
        // A node moved across cells is found at its new position only.
        topo.set_position(NodeId(15), Position::new(0.1, 0.1));
        let mut moved = left;
        moved.push(NodeId(15));
        assert_eq!(topo.nodes_within(left_half, in_rect(left_half)), moved);
        let corner = [0.6, 0.6, 1.0, 1.0];
        assert_eq!(
            topo.nodes_within(corner, in_rect(corner)),
            vec![NodeId(10), NodeId(11), NodeId(14)]
        );
    }
}
