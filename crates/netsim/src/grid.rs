//! Uniform-grid spatial index over node positions.
//!
//! The paper's deployments place nodes in the unit square and connect
//! them by a unit-disk radio of range `r`. Neighbor discovery is
//! therefore *local*: a node's neighbors all lie within `r`, so with a
//! grid of cells of side `r` every neighbor of a node lives in the
//! 3×3 block of cells around it. Bucketing nodes by cell turns the
//! all-pairs O(N²) neighbor construction into O(N · d) (d = mean
//! degree) and turns a single-node move into an O(d) incremental
//! update — the enabler for the 10k–100k-node sensitivity sweeps
//! (`scale` experiment) the paper's §6 could not reach.
//!
//! Determinism contract: cells live in a `BTreeMap` (iteration order
//! is a pure function of the inserted keys — `clippy.toml` forbids
//! hash maps here), buckets are plain `Vec`s mutated only by
//! the deterministic build/relocate sequence, and every caller that
//! derives neighbor lists from candidate scans sorts them by
//! [`NodeId`] before exposing them. No query result ever depends on
//! bucket-internal order.

use crate::node::NodeId;
use crate::topology::Position;
use std::collections::BTreeMap;

/// A cell coordinate. Signed because mobility may carry nodes out of
/// the unit square (negative coordinates included); the grid is
/// unbounded and sparse.
pub type Cell = (i64, i64);

/// Relative slack added to the cell side so that floating-point
/// rounding in the `coordinate / cell_size` division can never place
/// two in-range nodes more than one cell apart. The true quotient gap
/// for an in-range pair is ≤ `range / cell_size = 1 / (1 + SLACK)`,
/// i.e. at least `~SLACK` below 1, while the division's rounding error
/// stays orders of magnitude smaller for any realistic coordinate.
const SLACK: f64 = 1e-9;

/// Sparse uniform grid: node ids bucketed by the cell containing their
/// position, with cell side equal to the transmission range (plus a
/// relative slack of 1e-9 against rounding).
///
/// The index never answers range queries itself — it only narrows the
/// candidate set; callers re-check the exact Euclidean predicate, so
/// the grid can be conservative but never lossy.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    cells: BTreeMap<Cell, Vec<NodeId>>,
}

impl GridIndex {
    /// Bucket `positions` by cell for a radio of the given `range`.
    ///
    /// `range` must be strictly positive and finite (enforced by
    /// [`crate::Topology::new`], the only production caller).
    pub fn build(positions: &[Position], range: f64) -> Self {
        let mut grid = GridIndex {
            cell_size: range * (1.0 + SLACK),
            cells: BTreeMap::new(),
        };
        for (i, p) in positions.iter().enumerate() {
            grid.insert(NodeId::from_index(i), p);
        }
        grid
    }

    /// The cell containing `p`.
    #[inline]
    pub fn cell_of(&self, p: &Position) -> Cell {
        (self.coord(p.x), self.coord(p.y))
    }

    /// The cell coordinate of `v` along either axis. Monotone in `v`:
    /// `as i64` saturates on overflow, which keeps even absurd
    /// coordinates total rather than UB (such nodes simply share a
    /// far-away bucket), and maps a pathological NaN to 0.
    #[inline]
    fn coord(&self, v: f64) -> i64 {
        (v / self.cell_size).floor() as i64
    }

    /// Insert `id` into the bucket of `p`'s cell.
    pub fn insert(&mut self, id: NodeId, p: &Position) {
        self.cells.entry(self.cell_of(p)).or_default().push(id);
    }

    /// Move `id` from the bucket of `from`'s cell to the bucket of
    /// `to`'s cell. O(bucket) for the removal; a no-op when both
    /// positions share a cell.
    pub fn relocate(&mut self, id: NodeId, from: &Position, to: &Position) {
        let (src, dst) = (self.cell_of(from), self.cell_of(to));
        if src == dst {
            return;
        }
        if let Some(bucket) = self.cells.get_mut(&src) {
            // Bucket-internal order is never observable (see module
            // docs), so the O(1) swap_remove is safe.
            if let Some(at) = bucket.iter().position(|&n| n == id) {
                bucket.swap_remove(at);
            }
            if bucket.is_empty() {
                self.cells.remove(&src);
            }
        }
        // Only a move into an empty cell allocates (its fresh bucket);
        // otherwise the push reuses the bucket's amortized capacity.
        self.cells.entry(dst).or_default().push(id);
    }

    /// Append every node bucketed in the 3×3 cell block centered on
    /// `p`'s cell to `out` (without clearing it). The result is a
    /// superset of every node within `range` of `p` — callers apply
    /// the exact distance predicate.
    pub fn candidates_around(&self, p: &Position, out: &mut Vec<NodeId>) {
        let (cx, cy) = self.cell_of(p);
        for dy in -1..=1i64 {
            for dx in -1..=1i64 {
                if let Some(bucket) = self
                    .cells
                    .get(&(cx.saturating_add(dx), cy.saturating_add(dy)))
                {
                    // `out` is the caller's recycled scratch buffer, so
                    // once warm this extend allocates nothing.
                    out.extend_from_slice(bucket);
                }
            }
        }
    }

    /// Call `visit` on every node bucketed in a cell that overlaps the
    /// box `[x0, x1] × [y0, y1]` widened by one cell on every side, in
    /// no particular order: a superset of the nodes inside the box, to
    /// which callers apply their exact predicate. The widening keeps a
    /// node that rounding puts just past a computed edge; a caller
    /// whose bound can round by more than a cell widens the box itself.
    /// A NaN bound leaves its side open.
    ///
    /// One ordered range scan over the occupied cells of the box's
    /// columns: O(occupied cells + candidates), never a loop over the
    /// box's numeric cell span. A box of ±1e20 saturates its cells to
    /// `i64::MIN`/`MAX` and still visits only occupied cells.
    pub fn candidates_in_box(&self, [x0, y0, x1, y1]: [f64; 4], mut visit: impl FnMut(NodeId)) {
        let lo = |v: f64| {
            if v.is_nan() {
                i64::MIN
            } else {
                self.coord(v).saturating_sub(1)
            }
        };
        let hi = |v: f64| {
            if v.is_nan() {
                i64::MAX
            } else {
                self.coord(v).saturating_add(1)
            }
        };
        let (cx0, cy0, cx1, cy1) = (lo(x0), lo(y0), hi(x1), hi(y1));
        if cx0 > cx1 || cy0 > cy1 {
            return;
        }
        for (&(_, cy), bucket) in self.cells.range((cx0, i64::MIN)..=(cx1, i64::MAX)) {
            if (cy0..=cy1).contains(&cy) {
                bucket.iter().copied().for_each(&mut visit);
            }
        }
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total nodes held across all buckets.
    pub fn len(&self) -> usize {
        self.cells.values().map(Vec::len).sum()
    }

    /// True when no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Structural self-check for tests: every node in `positions` is
    /// bucketed exactly once, in exactly the bucket of its cell.
    /// Returns a human-readable description of the first violation.
    pub fn check_consistency(&self, positions: &[Position]) -> Result<(), String> {
        if self.len() != positions.len() {
            return Err(format!(
                "index holds {} nodes, topology has {}",
                self.len(),
                positions.len()
            ));
        }
        for (cell, bucket) in &self.cells {
            if bucket.is_empty() {
                return Err(format!("empty bucket retained at {cell:?}"));
            }
            for &id in bucket {
                let Some(p) = positions.get(id.index()) else {
                    return Err(format!("{id} bucketed but out of bounds"));
                };
                let expect = self.cell_of(p);
                if expect != *cell {
                    return Err(format!(
                        "{id} bucketed in {cell:?} but its position maps to {expect:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(x: f64, y: f64) -> Position {
        Position::new(x, y)
    }

    #[test]
    fn build_buckets_every_node_once() {
        let positions = vec![pos(0.1, 0.1), pos(0.9, 0.9), pos(0.1, 0.12), pos(0.5, 0.5)];
        let grid = GridIndex::build(&positions, 0.25);
        assert_eq!(grid.len(), 4);
        grid.check_consistency(&positions).expect("consistent");
        // 0 and 2 share a cell; 1 and 3 sit alone.
        assert_eq!(grid.occupied_cells(), 3);
    }

    #[test]
    fn candidates_cover_all_in_range_nodes() {
        let positions: Vec<Position> = (0..50)
            .map(|i| pos(f64::from(i) * 0.02, f64::from(i % 7) * 0.13))
            .collect();
        let range = 0.11;
        let grid = GridIndex::build(&positions, range);
        for (i, p) in positions.iter().enumerate() {
            let mut cand = Vec::new();
            grid.candidates_around(p, &mut cand);
            for (j, q) in positions.iter().enumerate() {
                if p.distance(q) <= range {
                    assert!(
                        cand.contains(&NodeId::from_index(j)),
                        "node {j} in range of {i} but not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn relocate_moves_between_buckets_and_prunes_empties() {
        let positions = vec![pos(0.05, 0.05), pos(0.95, 0.95)];
        let mut grid = GridIndex::build(&positions, 0.1);
        assert_eq!(grid.occupied_cells(), 2);
        let from = positions[0];
        let to = pos(0.95, 0.96);
        grid.relocate(NodeId(0), &from, &to);
        assert_eq!(grid.occupied_cells(), 1);
        let moved = vec![to, positions[1]];
        grid.check_consistency(&moved).expect("consistent");
    }

    #[test]
    fn relocate_within_a_cell_is_a_no_op() {
        let positions = vec![pos(0.05, 0.05)];
        let mut grid = GridIndex::build(&positions, 0.5);
        let to = pos(0.06, 0.07);
        grid.relocate(NodeId(0), &positions[0], &to);
        assert_eq!(grid.occupied_cells(), 1);
        grid.check_consistency(&[to]).expect("consistent");
    }

    #[test]
    fn negative_and_far_coordinates_bucket_safely() {
        let positions = vec![pos(-3.2, -0.1), pos(50.0, 50.0), pos(0.5, 0.5)];
        let grid = GridIndex::build(&positions, 0.3);
        assert_eq!(grid.len(), 3);
        grid.check_consistency(&positions).expect("consistent");
        let mut cand = Vec::new();
        grid.candidates_around(&positions[1], &mut cand);
        assert_eq!(cand, vec![NodeId(1)]);
    }

    #[test]
    fn box_candidates_cover_the_box_and_saturate_safely() {
        let positions: Vec<Position> = (0..50)
            .map(|i| pos(f64::from(i) * 0.02, f64::from(i % 7) * 0.13))
            .collect();
        let grid = GridIndex::build(&positions, 0.1);
        let ids = |bbox: [f64; 4]| {
            let mut seen = Vec::new();
            grid.candidates_in_box(bbox, |id| seen.push(id));
            seen.sort_unstable();
            seen
        };
        let all: Vec<NodeId> = (0..50).map(NodeId).collect();
        // Bounds past `i64` saturate, NaN bounds open their side: every
        // node is a candidate, each once.
        assert_eq!(ids([-1e20, -1e20, 1e20, 1e20]), all);
        let upper: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|id| grid.cell_of(&positions[id.index()]).1 >= 3)
            .collect();
        assert_eq!(
            ids([f64::NEG_INFINITY, 0.5, f64::INFINITY, f64::NAN]),
            upper
        );
        assert_eq!(ids([f64::NAN; 4]), all);
        // An inverted box is empty; a small box yields every node
        // inside it and only nodes of nearby cells.
        assert!(ids([0.9, 0.0, 0.1, 1.0]).is_empty());
        let (x0, y0, x1, y1) = (0.3, 0.2, 0.5, 0.5);
        let got = ids([x0, y0, x1, y1]);
        for (i, p) in positions.iter().enumerate() {
            let id = NodeId::from_index(i);
            if p.in_rect(x0, y0, x1, y1) {
                assert!(got.contains(&id), "{id} inside the box");
            }
            if got.contains(&id) {
                assert!(
                    p.in_rect(x0 - 0.2, y0 - 0.2, x1 + 0.2, y1 + 0.2),
                    "{id} far away"
                );
            }
        }
    }

    #[test]
    fn range_larger_than_the_field_degenerates_to_one_cell() {
        let positions: Vec<Position> = (0..20)
            .map(|i| pos(f64::from(i) * 0.05, 1.0 - f64::from(i) * 0.05))
            .collect();
        let grid = GridIndex::build(&positions, std::f64::consts::SQRT_2);
        assert_eq!(grid.occupied_cells(), 1);
        let mut cand = Vec::new();
        grid.candidates_around(&positions[7], &mut cand);
        assert_eq!(cand.len(), 20);
    }
}
