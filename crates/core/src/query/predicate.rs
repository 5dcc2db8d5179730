//! Spatial predicates.
//!
//! "For many applications like habitat monitoring, spatial filters may
//! be the most common predicate" (Section 3.1). The paper's query
//! workload draws axis-aligned windows
//! `[x - W/2, x + W/2] x [y - W/2, y + W/2]` around random centers
//! (Section 6.2); [`SpatialPredicate::window`] builds exactly those.

use snapshot_netsim::topology::{Position, Topology};
use snapshot_netsim::NodeId;

/// A spatial filter over node locations.
///
/// ```
/// use snapshot_core::SpatialPredicate;
/// use snapshot_netsim::topology::Position;
///
/// // The paper's W x W query window (area W^2 = 0.01).
/// let window = SpatialPredicate::window(0.5, 0.5, 0.1);
/// assert!(window.matches(Position::new(0.52, 0.48)));
/// assert!(!window.matches(Position::new(0.7, 0.5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialPredicate {
    /// Matches every node.
    All,
    /// Axis-aligned rectangle `[x0, x1] x [y0, y1]` (inclusive).
    Rect {
        /// Left edge.
        x0: f64,
        /// Bottom edge.
        y0: f64,
        /// Right edge.
        x1: f64,
        /// Top edge.
        y1: f64,
    },
    /// Disk of radius `r` around `(x, y)`.
    Circle {
        /// Center x.
        x: f64,
        /// Center y.
        y: f64,
        /// Radius.
        r: f64,
    },
}

impl SpatialPredicate {
    /// The paper's query window: a `W x W` square centered at
    /// `(x, y)` (area `W²`).
    pub fn window(x: f64, y: f64, w: f64) -> Self {
        let half = w / 2.0;
        SpatialPredicate::Rect {
            x0: x - half,
            y0: y - half,
            x1: x + half,
            y1: y + half,
        }
    }

    /// True when `pos` satisfies the predicate.
    pub fn matches(&self, pos: Position) -> bool {
        match *self {
            SpatialPredicate::All => true,
            SpatialPredicate::Rect { x0, y0, x1, y1 } => pos.in_rect(x0, y0, x1, y1),
            SpatialPredicate::Circle { x, y, r } => pos.distance(&Position::new(x, y)) <= r,
        }
    }

    /// All nodes (alive or dead) whose position matches, in ascending
    /// id order: the same ids as filtering every node with
    /// [`SpatialPredicate::matches`]. A rectangle or circle tests only
    /// the nodes of the grid cells overlapping its bounding box
    /// ([`Topology::nodes_within`]), so a scan costs its targets, not
    /// the deployment.
    pub fn targets(&self, topo: &Topology) -> Vec<NodeId> {
        let bbox = match *self {
            SpatialPredicate::All => return topo.node_ids().collect(),
            SpatialPredicate::Rect { x0, y0, x1, y1 } => [x0, y0, x1, y1],
            SpatialPredicate::Circle { x, y, r } => {
                // `matches` compares a rounded distance with `r`, so it
                // can admit a node a few ulps of |x| + |y| + r outside
                // the exact disk: more than the grid's one-cell margin
                // once the coordinates dwarf a cell
                // (`CIRCLE(1e20, 0.5, 1e20)` matches a node at x = -2).
                let reach = r + 8.0 * f64::EPSILON * (x.abs() + y.abs() + r.abs());
                [x - reach, y - reach, x + reach, y + reach]
            }
        };
        topo.nodes_within(bbox, |p| self.matches(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_has_the_papers_geometry() {
        // W² = 0.01 means W = 0.1.
        let p = SpatialPredicate::window(0.5, 0.5, 0.1);
        assert!(p.matches(Position::new(0.5, 0.5)));
        assert!(p.matches(Position::new(0.45, 0.55)));
        assert!(!p.matches(Position::new(0.39, 0.5)));
        assert!(!p.matches(Position::new(0.5, 0.61)));
    }

    #[test]
    fn all_matches_everything() {
        assert!(SpatialPredicate::All.matches(Position::new(-5.0, 42.0)));
    }

    #[test]
    fn circle_uses_euclidean_distance() {
        let p = SpatialPredicate::Circle {
            x: 0.0,
            y: 0.0,
            r: 1.0,
        };
        assert!(p.matches(Position::new(0.6, 0.8))); // exactly on the rim
        assert!(!p.matches(Position::new(0.8, 0.8)));
    }

    #[test]
    fn targets_filter_a_topology() {
        let topo = Topology::grid(4, 0.5); // 16 nodes
        let left = SpatialPredicate::Rect {
            x0: 0.0,
            y0: 0.0,
            x1: 0.5,
            y1: 1.0,
        };
        assert_eq!(left.targets(&topo).len(), 8);
        assert_eq!(SpatialPredicate::All.targets(&topo).len(), 16);
    }

    #[test]
    fn unbounded_rectangles_target_every_node() {
        let topo = Topology::random_uniform(500, 0.05, 3).expect("valid deployment");
        let all: Vec<NodeId> = topo.node_ids().collect();
        let (inf, big) = (f64::INFINITY, 1e20);
        for (x0, y0, x1, y1) in [(-inf, -inf, inf, inf), (-big, -big, big, big)] {
            let rect = SpatialPredicate::Rect { x0, y0, x1, y1 };
            assert_eq!(rect.targets(&topo), all, "{rect:?}");
        }
    }
}
