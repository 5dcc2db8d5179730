//! Aggregation trees (TAG-style).
//!
//! Section 6.2 of the paper executes aggregate queries by forming a
//! routing tree rooted at a randomly chosen sink via flooding, then
//! aggregating measurements up the tree. The experiment's key metric —
//! how many nodes *participate* in a query — counts both the nodes
//! that contribute a measurement and the nodes that merely route
//! partial aggregates toward the sink. [`AggregationTree::participants`]
//! computes exactly that set.

use crate::flood::FloodOutcome;
use crate::node::{NodeId, NodeSet};
use std::collections::BTreeSet;

/// A routing tree rooted at a sink node.
#[derive(Debug, Clone)]
pub struct AggregationTree {
    sink: NodeId,
    parent: Vec<Option<NodeId>>,
    hops: Vec<Option<u32>>,
}

impl AggregationTree {
    /// Build a tree from a flood outcome.
    pub fn from_flood(outcome: &FloodOutcome) -> Self {
        AggregationTree {
            sink: outcome.sink,
            parent: outcome.parent.clone(),
            hops: outcome.hops.clone(),
        }
    }

    /// Build a tree by breadth-first search over the radio graph,
    /// restricted to nodes for which `alive` returns true.
    ///
    /// This is the *idealized* (lossless, zero-message-cost) tree the
    /// paper's query experiments assume: Section 6.2 charges nodes
    /// only "when responding to a query", not for tree formation.
    /// Use [`crate::flood::flood`] instead when tree formation itself
    /// must pay for (and suffer) radio traffic.
    pub fn bfs(
        topology: &crate::topology::Topology,
        sink: NodeId,
        alive: impl Fn(NodeId) -> bool,
    ) -> Self {
        Self::bfs_preferring(topology, sink, alive, |_| false)
    }

    /// Like [`AggregationTree::bfs`], but when a node could attach to
    /// several parents at the same depth, a parent for which `prefer`
    /// returns true wins.
    ///
    /// This implements the routing refinement the paper sketches after
    /// Table 3: "One can modify the protocol to favor (when
    /// applicable) representative nodes for routing the messages. This
    /// will result in further reduction in the number of sensor nodes
    /// used during snapshot queries" — preferred (representative)
    /// parents are on the path anyway, so fewer passive nodes are
    /// dragged in as routers. Paths stay shortest (it is still BFS);
    /// only the choice among equal-depth parents changes.
    pub fn bfs_preferring(
        topology: &crate::topology::Topology,
        sink: NodeId,
        alive: impl Fn(NodeId) -> bool,
        prefer: impl Fn(NodeId) -> bool,
    ) -> Self {
        let n = topology.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut hops: Vec<Option<u32>> = vec![None; n];
        if alive(sink) {
            parent[sink.index()] = Some(sink);
            hops[sink.index()] = Some(0);
            let mut level = vec![sink];
            let mut depth = 0u32;
            while !level.is_empty() {
                depth += 1;
                // Collect every attachable node with all its candidate
                // parents in the current level, then pick preferred
                // parents.
                let mut next: Vec<NodeId> = Vec::new();
                for &cur in &level {
                    for &nb in topology.neighbors(cur) {
                        if !alive(nb) || parent[nb.index()].is_some() {
                            continue;
                        }
                        // First parent claims the node...
                        parent[nb.index()] = Some(cur);
                        hops[nb.index()] = Some(depth);
                        next.push(nb);
                    }
                }
                // ...then preferred same-depth parents override.
                for &nb in &next {
                    // Everything in `next` was attached just above;
                    // an unattached entry simply keeps its parent.
                    if parent[nb.index()].is_some_and(&prefer) {
                        continue;
                    }
                    for &cand in topology.neighbors(nb) {
                        if hops[cand.index()] == Some(depth - 1) && prefer(cand) {
                            parent[nb.index()] = Some(cand);
                            break;
                        }
                    }
                }
                level = next;
            }
        }
        AggregationTree { sink, parent, hops }
    }

    /// The root.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// True when the node joined the tree.
    pub fn contains(&self, id: NodeId) -> bool {
        self.parent[id.index()].is_some()
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }

    /// True when the tree is empty (flood never started).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parent of a node (`None` when outside the tree; the sink is its
    /// own parent).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent[id.index()]
    }

    /// Hop distance from the sink.
    pub fn depth(&self, id: NodeId) -> Option<u32> {
        self.hops[id.index()]
    }

    /// The path from `id` up to the sink, inclusive of both ends.
    /// Empty when `id` is outside the tree.
    pub fn path_to_sink(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = id;
        if !self.contains(cur) {
            return path;
        }
        loop {
            path.push(cur);
            if cur == self.sink {
                break;
            }
            match self.parent(cur) {
                Some(p) if p != cur => cur = p,
                _ => break, // malformed entry; stop defensively
            }
            if path.len() > self.parent.len() {
                break; // cycle guard; cannot happen for flood-built trees
            }
        }
        path
    }

    /// Every node that participates when `responders` report through
    /// this tree: the responders themselves (those actually in the
    /// tree) plus every ancestor on their paths to the sink, in
    /// ascending id order.
    ///
    /// One pass: each responder walks toward the sink, marking the
    /// nodes it passes in a [`NodeSet`], and stops at the first node
    /// already marked — a shared path segment is walked once, so the
    /// cost is O(|responders| + |participants|) plus one sweep of
    /// N / 64 words.
    ///
    /// This is the quantity averaged in the paper's Table 3
    /// (`N_regular` and `N_snapshot`).
    pub fn participants(&self, responders: &[NodeId]) -> Vec<NodeId> {
        let mut marked = NodeSet::new(self.parent.len());
        for &r in responders {
            if !self.contains(r) {
                continue;
            }
            let mut cur = r;
            while marked.insert(cur) {
                if cur == self.sink {
                    break;
                }
                match self.parent.get(cur.index()) {
                    Some(&Some(p)) if p != cur => cur = p,
                    _ => break, // malformed entry; stop defensively
                }
            }
        }
        marked.to_vec()
    }

    /// Participants that only route (are not themselves responders),
    /// in ascending id order.
    pub fn routers(&self, responders: &[NodeId]) -> Vec<NodeId> {
        let responders_set: BTreeSet<NodeId> = responders.iter().copied().collect();
        self.participants(responders)
            .into_iter()
            .filter(|id| !responders_set.contains(id))
            .collect()
    }

    /// Children lists, for traversals.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut children = vec![Vec::new(); self.parent.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                let id = NodeId::from_index(i);
                if *p != id {
                    children[p.index()].push(id);
                }
            }
        }
        children
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::FloodOutcome;

    /// Hand-built tree:
    ///        0 (sink)
    ///       / \
    ///      1   2
    ///     /     \
    ///    3       4
    ///            |
    ///            5        (node 6 unreached)
    fn sample_tree() -> AggregationTree {
        let parent = vec![
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(2)),
            Some(NodeId(4)),
            None,
        ];
        let hops = vec![Some(0), Some(1), Some(1), Some(2), Some(2), Some(3), None];
        AggregationTree::from_flood(&FloodOutcome {
            sink: NodeId(0),
            parent,
            hops,
        })
    }

    #[test]
    fn path_walks_to_sink() {
        let t = sample_tree();
        assert_eq!(
            t.path_to_sink(NodeId(5)),
            vec![NodeId(5), NodeId(4), NodeId(2), NodeId(0)]
        );
        assert_eq!(t.path_to_sink(NodeId(0)), vec![NodeId(0)]);
        assert!(t.path_to_sink(NodeId(6)).is_empty());
    }

    #[test]
    fn participants_count_responders_and_routers() {
        let t = sample_tree();
        let parts = t.participants(&[NodeId(3), NodeId(5)]);
        // 3 -> 1 -> 0 and 5 -> 4 -> 2 -> 0
        let expect: Vec<NodeId> = [0, 1, 2, 3, 4, 5].into_iter().map(NodeId).collect();
        assert_eq!(parts, expect);
        let routers = t.routers(&[NodeId(3), NodeId(5)]);
        let expect_r: Vec<NodeId> = [0, 1, 2, 4].into_iter().map(NodeId).collect();
        assert_eq!(routers, expect_r);
    }

    #[test]
    fn unreached_responders_contribute_nothing() {
        let t = sample_tree();
        assert!(t.participants(&[NodeId(6)]).is_empty());
    }

    #[test]
    fn tree_size_and_membership() {
        let t = sample_tree();
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert!(t.contains(NodeId(5)));
        assert!(!t.contains(NodeId(6)));
        assert_eq!(t.depth(NodeId(5)), Some(3));
        assert_eq!(t.sink(), NodeId(0));
    }

    #[test]
    fn children_invert_parents() {
        let t = sample_tree();
        let ch = t.children();
        assert_eq!(ch[0], vec![NodeId(1), NodeId(2)]);
        assert_eq!(ch[4], vec![NodeId(5)]);
        assert!(ch[3].is_empty());
        assert!(ch[6].is_empty());
    }

    #[test]
    fn shared_path_segments_counted_once() {
        let t = sample_tree();
        // 4 and 5 share the 4 -> 2 -> 0 segment.
        let parts = t.participants(&[NodeId(4), NodeId(5)]);
        assert_eq!(parts.len(), 4); // {0,2,4,5}
    }

    #[test]
    fn bfs_tree_spans_the_connected_component() {
        use crate::topology::{Position, Topology};
        // Line of 5 nodes, adjacent-only connectivity.
        let positions = (0..5).map(|i| Position::new(i as f64 * 0.1, 0.0)).collect();
        let topo = Topology::new(positions, 0.15).unwrap();
        let t = AggregationTree::bfs(&topo, NodeId(0), |_| true);
        assert_eq!(t.len(), 5);
        for i in 0..5u32 {
            assert_eq!(t.depth(NodeId(i)), Some(i));
        }
    }

    #[test]
    fn bfs_tree_excludes_dead_nodes() {
        use crate::topology::{Position, Topology};
        let positions = (0..5).map(|i| Position::new(i as f64 * 0.1, 0.0)).collect();
        let topo = Topology::new(positions, 0.15).unwrap();
        // Node 2 dead cuts the line in two.
        let t = AggregationTree::bfs(&topo, NodeId(0), |id| id != NodeId(2));
        assert!(t.contains(NodeId(1)));
        assert!(!t.contains(NodeId(2)));
        assert!(!t.contains(NodeId(3)), "nodes past the cut are unreachable");
    }

    #[test]
    fn preferring_bfs_keeps_shortest_paths() {
        use crate::topology::{Position, Topology};
        let positions = (0..6).map(|i| Position::new(i as f64 * 0.1, 0.0)).collect();
        let topo = Topology::new(positions, 0.15).unwrap();
        let plain = AggregationTree::bfs(&topo, NodeId(0), |_| true);
        let pref = AggregationTree::bfs_preferring(&topo, NodeId(0), |_| true, |n| n.0 % 2 == 0);
        for i in 0..6u32 {
            assert_eq!(
                plain.depth(NodeId(i)),
                pref.depth(NodeId(i)),
                "depth changed for N{i}"
            );
        }
    }

    #[test]
    fn preferring_bfs_picks_preferred_parents_among_equals() {
        use crate::topology::{Position, Topology};
        // Diamond: sink 0 at origin; 1 and 2 equidistant at depth 1;
        // node 3 adjacent to both. Preferring node 2 must route 3
        // through it.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(0.1, 0.05),
            Position::new(0.1, -0.05),
            Position::new(0.2, 0.0),
        ];
        let topo = Topology::new(positions, 0.13).unwrap();
        let pref = AggregationTree::bfs_preferring(&topo, NodeId(0), |_| true, |n| n == NodeId(2));
        assert_eq!(pref.parent(NodeId(3)), Some(NodeId(2)));
        let pref1 = AggregationTree::bfs_preferring(&topo, NodeId(0), |_| true, |n| n == NodeId(1));
        assert_eq!(pref1.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn bfs_with_dead_sink_is_empty() {
        use crate::topology::{Position, Topology};
        let positions = (0..3).map(|i| Position::new(i as f64 * 0.1, 0.0)).collect();
        let topo = Topology::new(positions, 1.0).unwrap();
        let t = AggregationTree::bfs(&topo, NodeId(0), |id| id != NodeId(0));
        assert!(t.is_empty());
    }
}
