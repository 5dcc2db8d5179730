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

/// A set of the ids `0..n` of one deployment: one bit per node, 64
/// nodes to a `u64` word. An insert costs O(1), and
/// [`NodeSet::to_vec`] sweeps the words in ascending id order for
/// O(n / 64 + len), one `trailing_zeros` per member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set over ids `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Add `id`. Returns `true` when it was absent; an id outside
    /// `0..n` is never added.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let bit = 1u64 << (id.index() % 64);
        match self.words.get_mut(id.index() / 64) {
            Some(word) if *word & bit == 0 => {
                *word |= bit;
                true
            }
            _ => false,
        }
    }

    /// Number of ids in the set.
    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The ids in ascending order.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    NodeId::from_index(i * 64 + bit)
                })
            })
        })
    }

    /// The ids in ascending order, in a vector allocated once at
    /// exactly their count.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.len());
        ids.extend(self.iter());
        ids
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
    fn node_set_sweeps_members_in_ascending_order() {
        let mut set = NodeSet::new(130);
        assert_eq!(set.len(), 0);
        for raw in [129u32, 3, 64, 63, 0, 3, 200] {
            set.insert(NodeId(raw));
        }
        let want: Vec<NodeId> = [0, 3, 63, 64, 129].into_iter().map(NodeId).collect();
        assert_eq!(
            set.to_vec(),
            want,
            "a repeat adds nothing; 200 is out of range"
        );
        assert_eq!(set.to_vec().capacity(), want.len());
        assert_eq!(set.len(), 5);
        assert!(!set.insert(NodeId(64)), "already present");
        assert!(set.insert(NodeId(65)));
        assert!(!set.insert(NodeId(200)), "out of range");
        assert_eq!(set.len(), 6);
        assert!(NodeSet::new(0).to_vec().is_empty());
    }

    #[test]
    fn node_state_liveness() {
        assert!(NodeState::Alive.is_alive());
        assert!(!NodeState::Dead.is_alive());
    }
}
