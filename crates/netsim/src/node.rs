//! Node identifiers and liveness state.

use std::fmt;

/// Identifier of a sensor node.
///
/// The paper assumes nodes carry unique ids (e.g. their MAC address)
/// that are totally ordered; the election protocol uses the ordering to
/// break ties ("favor `N_{i1}` if `i1 > i2`"). We use a dense `u32` so
/// ids double as indices into per-node vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a vector index.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "truncating would silently alias node ids; real deployments are far below u32::MAX"
    )]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Liveness of a node.
///
/// A node dies when its battery is depleted (or when failure is
/// injected by an experiment); dead nodes neither send nor receive.
/// Death is permanent unless the fault engine scheduled a transient
/// outage, in which case `Network::revive` flips the node back to
/// [`NodeState::Alive`] at the recovery tick (battery permitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Operating normally.
    Alive,
    /// Battery depleted or failure injected; silent until revived by
    /// a scheduled outage recovery (battery depletion is never
    /// revivable — a drained battery stays drained).
    Dead,
}

impl NodeState {
    /// `true` when the node is alive.
    #[inline]
    pub fn is_alive(self) -> bool {
        matches!(self, NodeState::Alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_index() {
        for raw in [0u32, 1, 99, 100_000] {
            let id = NodeId(raw);
            assert_eq!(NodeId::from_index(id.index()), id);
        }
    }

    #[test]
    fn node_id_ordering_matches_raw_ordering() {
        assert!(NodeId(3) > NodeId(2));
        assert!(NodeId(0) < NodeId(1));
        assert_eq!(NodeId(7), NodeId(7));
    }

    #[test]
    fn node_id_displays_with_paper_notation() {
        assert_eq!(NodeId(4).to_string(), "N4");
    }

    #[test]
    fn node_state_liveness() {
        assert!(NodeState::Alive.is_alive());
        assert!(!NodeState::Dead.is_alive());
    }
}
