//! Checkpoint extraction and rehydration.
//!
//! A [`CheckpointState`] is a frozen, self-contained image of a
//! deployment at one simulation tick: the topology (positions, range
//! and the adjacency lists *verbatim*, because BFS tree construction
//! is neighbor-order-sensitive), per-node aliveness, the current
//! measurements, and every node's protocol and cache state — with the
//! cache's running [`SuffStats`] carried bit-exactly rather than
//! recomputed, so a rehydrated query answers byte-identically to the
//! live deployment it was taken from.
//!
//! Three consumers:
//!
//! * [`SensorNetwork::checkpoint`](crate::network::SensorNetwork::checkpoint)
//!   extracts one; the `snapshot-store` crate persists it.
//! * [`FrozenCheckpoint`] rebuilds one into a query-ready image that
//!   answers queries against the checkpoint alone (the `AS OF <tick>`
//!   time-travel path) — no simulator required; [`execute_at`] is its
//!   one-shot form.
//! * [`SensorNetwork::restore_checkpoint`](crate::network::SensorNetwork::restore_checkpoint)
//!   rehydrates a freshly-constructed deployment for crash recovery.
//!
//! Per-election scratch (offer lists, cooldowns, tie-break tallies) is
//! *not* captured: it is reset at the start of every election, so a
//! checkpoint taken at an operation boundary never needs it. The two
//! scratch flags that do survive elections (`forced_active`,
//! `refusing_invites`) are captured.

use crate::cache::{CacheConfig, CachePolicy, LineKey, MeasurementId, ModelCache};
use crate::election::ProtocolMsg;
use crate::error::CoreError;
use crate::model::SuffStats;
use crate::query::{execute_frozen, QueryResult, SnapshotQuery};
use crate::sensor::{Mode, SensorNode};
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::{Network, NodeId, Position, Topology};
use std::sync::Arc;

/// One cached line of one node: the raw pairs plus the running
/// statistics exactly as they were (see [`ModelCache::from_parts`] for
/// why the stats are not recomputed from the pairs).
#[derive(Debug, Clone, PartialEq)]
pub struct LineCheckpoint {
    /// The modeled neighbor.
    pub node: u32,
    /// Which of its sensing elements.
    pub measurement: u8,
    /// Running sufficient statistics, bit-exact.
    pub stats: SuffStats,
    /// The cached `(x_i, x_j)` pairs, oldest first.
    pub pairs: Vec<(f64, f64)>,
}

/// One node's persistent protocol state.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCheckpoint {
    /// Mode flag (ACTIVE / PASSIVE / undefined).
    pub mode: Mode,
    /// Who represents this node, with the election epoch of the
    /// acceptance (`None` = itself).
    pub rep_of: Option<(u32, u64)>,
    /// Members this node believes it represents, with their epochs,
    /// in id order.
    pub represents: Vec<(u32, u64)>,
    /// Whether the Rule-4 timeout forced this node ACTIVE.
    pub forced_active: bool,
    /// Whether the node is shedding load (energy handoff) and
    /// refusing invitations.
    pub refusing_invites: bool,
    /// The cache's round-robin rotation marker.
    pub rr_after: Option<(u32, u8)>,
    /// Cache lines in key order.
    pub lines: Vec<LineCheckpoint>,
}

/// A frozen image of a whole deployment at one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Simulation time the checkpoint was taken at.
    pub tick: u64,
    /// Election epoch at that time.
    pub epoch: u64,
    /// Radio range.
    pub range: f64,
    /// Node positions, in id order.
    pub positions: Vec<(f64, f64)>,
    /// Adjacency lists, verbatim (BFS parent selection depends on
    /// neighbor order, so these must round-trip unsorted).
    pub neighbors: Vec<Vec<u32>>,
    /// Aliveness per node.
    pub alive: Vec<bool>,
    /// Current measurement per node at `tick`.
    pub values: Vec<f64>,
    /// Cache budget in force (shared by every node).
    pub budget_bytes: u64,
    /// Bytes per cached pair.
    pub pair_bytes: u64,
    /// Cache replacement policy.
    pub policy: CachePolicy,
    /// Per-node protocol state, in id order.
    pub nodes: Vec<NodeCheckpoint>,
}

/// Coverage / quality accounting derived from a checkpoint — the
/// flags the store's verifier cross-checks against the persisted
/// node records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualitySummary {
    /// Deployment size.
    pub nodes: usize,
    /// Alive nodes.
    pub alive: usize,
    /// Alive ACTIVE nodes (the snapshot size `n1`).
    pub active: usize,
    /// Alive PASSIVE nodes.
    pub passive: usize,
    /// Alive nodes still undefined.
    pub undefined: usize,
    /// Alive nodes whose recorded representative is dead — coverage
    /// debt that maintenance has not yet repaired.
    pub stale_links: usize,
    /// Fraction of alive nodes answerable right now: ACTIVE, or
    /// represented by an alive representative (1.0 when nobody is
    /// alive).
    pub coverage: f64,
}

impl CheckpointState {
    /// Deployment size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a zero-node checkpoint (never produced by extraction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Structural validation: every per-node vector has the same
    /// length, ids stay in range, each node's cache lines are in
    /// strictly ascending key order (as extraction writes them), each
    /// line's statistics count matches its pair count, and no node
    /// caches more pairs than the byte budget allows. Decoded store
    /// data must pass here before any index-based access.
    pub fn validate(&self) -> Result<(), CoreError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(CoreError::InvalidCheckpoint {
                detail: "checkpoint has no nodes",
            });
        }
        if self.positions.len() != n
            || self.neighbors.len() != n
            || self.alive.len() != n
            || self.values.len() != n
        {
            return Err(CoreError::InvalidCheckpoint {
                detail: "per-node vectors disagree on deployment size",
            });
        }
        if self.range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CoreError::InvalidCheckpoint {
                detail: "radio range must be positive",
            });
        }
        validate_neighbors(n, &self.neighbors)?;
        validate_nodes(n, self.cache_config().capacity_pairs(), &self.nodes)
    }

    /// Compute the quality summary. Index-safe on malformed data
    /// (unknown ids read as dead) so it can run before [`validate`]
    /// without panicking.
    ///
    /// [`validate`]: CheckpointState::validate
    pub fn quality(&self) -> QualitySummary {
        let is_alive = |id: usize| self.alive.get(id).copied().unwrap_or(false);
        let mut alive = 0usize;
        let mut active = 0usize;
        let mut passive = 0usize;
        let mut undefined = 0usize;
        let mut stale_links = 0usize;
        let mut covered = 0usize;
        for (i, nc) in self.nodes.iter().enumerate() {
            if !is_alive(i) {
                continue;
            }
            alive += 1;
            match nc.mode {
                Mode::Active => active += 1,
                Mode::Passive => passive += 1,
                Mode::Undefined => undefined += 1,
            }
            let rep_alive = nc.rep_of.map(|(rep, _)| is_alive(rep as usize));
            if matches!(nc.mode, Mode::Active) || rep_alive == Some(true) {
                covered += 1;
            }
            if rep_alive == Some(false) {
                stale_links += 1;
            }
        }
        let coverage = if alive == 0 {
            1.0
        } else {
            covered as f64 / alive as f64
        };
        QualitySummary {
            nodes: self.nodes.len(),
            alive,
            active,
            passive,
            undefined,
            stale_links,
            coverage,
        }
    }

    /// The cache configuration captured at extraction time.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            budget_bytes: self.budget_bytes as usize,
            pair_bytes: self.pair_bytes as usize,
            policy: self.policy,
        }
    }
}

/// Every adjacency id must name one of the `n` nodes.
fn validate_neighbors(n: usize, neighbors: &[Vec<u32>]) -> Result<(), CoreError> {
    if neighbors.iter().flatten().all(|&id| (id as usize) < n) {
        Ok(())
    } else {
        Err(CoreError::InvalidCheckpoint {
            detail: "neighbor id out of range",
        })
    }
}

/// Every node record must name nodes in range, keep its cache lines in
/// strictly ascending key order, count each line's pairs in its
/// statistics, and hold at most `capacity` pairs: a full cache swaps
/// one pair for one, so a cache restored over its budget would stay
/// over it.
fn validate_nodes(n: usize, capacity: usize, nodes: &[NodeCheckpoint]) -> Result<(), CoreError> {
    let in_range = |id: u32| (id as usize) < n;
    let key = |lc: &LineCheckpoint| (lc.node, lc.measurement);
    for nc in nodes {
        if let Some((rep, _)) = nc.rep_of {
            if !in_range(rep) {
                return Err(CoreError::InvalidCheckpoint {
                    detail: "representative id out of range",
                });
            }
        }
        if !nc.represents.iter().all(|&(m, _)| in_range(m)) {
            return Err(CoreError::InvalidCheckpoint {
                detail: "member id out of range",
            });
        }
        if !nc.lines.is_sorted_by(|a, b| key(a) < key(b)) {
            return Err(CoreError::InvalidCheckpoint {
                detail: "cache-line keys are not strictly ascending",
            });
        }
        for lc in &nc.lines {
            if !in_range(lc.node) {
                return Err(CoreError::InvalidCheckpoint {
                    detail: "cache-line neighbor id out of range",
                });
            }
            if lc.stats.n as usize != lc.pairs.len() {
                return Err(CoreError::InvalidCheckpoint {
                    detail: "cache-line statistics disagree with pair count",
                });
            }
        }
        if nc.lines.iter().map(|lc| lc.pairs.len()).sum::<usize>() > capacity {
            return Err(CoreError::InvalidCheckpoint {
                detail: "cache holds more pairs than its byte budget allows",
            });
        }
    }
    Ok(())
}

/// Extract a checkpoint from live deployment parts (called by
/// `SensorNetwork::checkpoint`, which owns the private fields).
pub(crate) fn extract(
    net: &Network<ProtocolMsg>,
    nodes: &[SensorNode],
    now: usize,
    epoch: u64,
    values: Vec<f64>,
) -> CheckpointState {
    let topo = net.topology();
    let positions = topo
        .node_ids()
        .map(|id| {
            let p = topo.position(id);
            (p.x, p.y)
        })
        .collect();
    let neighbors = topo
        .node_ids()
        .map(|id| topo.neighbors(id).iter().map(|n| n.0).collect())
        .collect();
    let alive = topo.node_ids().map(|id| net.is_alive(id)).collect();
    let cache_cfg = nodes.first().map(|n| *n.cache.config()).unwrap_or_default();
    CheckpointState {
        tick: now as u64,
        epoch,
        range: topo.range(),
        positions,
        neighbors,
        alive,
        values,
        budget_bytes: cache_cfg.budget_bytes as u64,
        pair_bytes: cache_cfg.pair_bytes as u64,
        policy: cache_cfg.policy,
        nodes: nodes.iter().map(extract_node).collect(),
    }
}

fn extract_node(n: &SensorNode) -> NodeCheckpoint {
    NodeCheckpoint {
        mode: n.mode,
        rep_of: n.rep_of.map(|(id, e)| (id.0, e.0)),
        represents: n.represents.iter().map(|(&id, &e)| (id.0, e.0)).collect(),
        forced_active: n.forced_active,
        refusing_invites: n.refusing_invites,
        rr_after: n.cache.rr_after().map(|k| (k.node.0, k.measurement.0)),
        lines: n
            .cache
            .lines()
            .map(|(k, line)| LineCheckpoint {
                node: k.node.0,
                measurement: k.measurement.0,
                stats: *line.stats(),
                pairs: line.pairs().copied().collect(),
            })
            .collect(),
    }
}

/// Overwrite one node's protocol and cache state from its checkpoint.
fn apply_node(nc: &NodeCheckpoint, node: &mut SensorNode, cfg: CacheConfig) {
    node.mode = nc.mode;
    node.rep_of = nc.rep_of.map(|(id, e)| (NodeId(id), Epoch(e)));
    node.represents = nc
        .represents
        .iter()
        .map(|&(id, e)| (NodeId(id), Epoch(e)))
        .collect();
    node.forced_active = nc.forced_active;
    node.refusing_invites = nc.refusing_invites;
    let lines = nc.lines.iter().map(|lc| {
        let key = LineKey {
            node: NodeId(lc.node),
            measurement: MeasurementId(lc.measurement),
        };
        (key, lc.pairs.as_slice(), lc.stats)
    });
    let rr_after = nc.rr_after.map(|(id, m)| LineKey {
        node: NodeId(id),
        measurement: MeasurementId(m),
    });
    node.cache = ModelCache::from_parts(cfg, lines, rr_after);
}

/// Overwrite every node's state (called by
/// `SensorNetwork::restore_checkpoint` after validation).
pub(crate) fn apply_nodes(cp: &CheckpointState, nodes: &mut [SensorNode]) {
    let cfg = cp.cache_config();
    for (nc, node) in cp.nodes.iter().zip(nodes.iter_mut()) {
        apply_node(nc, node, cfg);
    }
}

/// Rebuild the node vector `records` describe, standalone.
fn rehydrate_nodes(records: &[NodeCheckpoint], cfg: CacheConfig) -> Arc<[SensorNode]> {
    records
        .iter()
        .enumerate()
        .map(|(i, nc)| {
            let mut node = SensorNode::new(NodeId::from_index(i), cfg);
            apply_node(nc, &mut node, cfg);
            node
        })
        .collect()
}

/// Rebuild a topology from positions and adjacency lists (verbatim).
fn rebuild_topology(
    positions: &[(f64, f64)],
    range: f64,
    neighbors: &[Vec<u32>],
) -> Result<Arc<Topology>, CoreError> {
    let positions = positions
        .iter()
        .map(|&(x, y)| Position::new(x, y))
        .collect();
    let neighbors = neighbors
        .iter()
        .map(|adj| adj.iter().map(|&id| NodeId(id)).collect())
        .collect();
    Topology::from_parts(positions, range, neighbors)
        .map(Arc::new)
        .map_err(|_| CoreError::InvalidCheckpoint {
            detail: "topology rebuild rejected the checkpoint geometry",
        })
}

/// A topology as a checkpoint stores it: node positions and adjacency
/// lists, in id order.
pub type TopologyParts<'a> = (&'a [(f64, f64)], &'a [Vec<u32>]);

/// A checkpoint described against the one before it, in the parts a
/// query image is built from: the tick and values it always carries,
/// and each other part only when it differs from its parent's. The
/// snapshot store decodes one from a delta block; see
/// [`FrozenCheckpoint::derive`].
#[derive(Debug, Clone, Copy)]
pub struct ChildParts<'a> {
    /// Simulation time the child was taken at.
    pub tick: u64,
    /// Current measurement per node, in id order.
    pub values: &'a [f64],
    /// Aliveness per node; `None` when unchanged.
    pub alive: Option<&'a [bool]>,
    /// Positions and adjacency lists; `None` when unchanged.
    pub topology: Option<TopologyParts<'a>>,
    /// Every node's record; `None` when no node's record changed.
    pub nodes: Option<&'a [NodeCheckpoint]>,
}

/// A checkpoint rebuilt into a query-ready image: validated once, with
/// its topology and node caches rehydrated, so each query against it
/// costs only the scan. Immutable once built, so a stored version's
/// image never goes stale. The topology, liveness and nodes sit behind
/// `Arc`s, so an image [derived](FrozenCheckpoint::derive) from its
/// parent shares every part the child leaves unchanged.
#[derive(Debug)]
pub struct FrozenCheckpoint {
    tick: u64,
    cache: CacheConfig,
    topology: Arc<Topology>,
    alive: Arc<[bool]>,
    values: Vec<f64>,
    nodes: Arc<[SensorNode]>,
}

impl FrozenCheckpoint {
    /// Validate `cp` and rebuild its topology and nodes.
    pub fn new(cp: &CheckpointState) -> Result<Self, CoreError> {
        cp.validate()?;
        let cache = cp.cache_config();
        Ok(FrozenCheckpoint {
            tick: cp.tick,
            cache,
            topology: rebuild_topology(&cp.positions, cp.range, &cp.neighbors)?,
            alive: cp.alive.as_slice().into(),
            values: cp.values.clone(),
            nodes: rehydrate_nodes(&cp.nodes, cache),
        })
    }

    /// The image of `child`, the checkpoint taken after this image's
    /// own. Each part `child` leaves out is shared with this image; each
    /// part it carries is validated against the deployment size and
    /// built fresh. The radio range and cache configuration are this
    /// image's.
    pub fn derive(&self, child: &ChildParts<'_>) -> Result<Self, CoreError> {
        let n = self.nodes.len();
        let sized = child.values.len() == n
            && child.alive.is_none_or(|a| a.len() == n)
            && child
                .topology
                .is_none_or(|(pos, adj)| pos.len() == n && adj.len() == n)
            && child.nodes.is_none_or(|nodes| nodes.len() == n);
        if !sized {
            return Err(CoreError::InvalidCheckpoint {
                detail: "per-node vectors disagree on deployment size",
            });
        }
        let topology = match child.topology {
            None => Arc::clone(&self.topology),
            Some((positions, neighbors)) => {
                validate_neighbors(n, neighbors)?;
                rebuild_topology(positions, self.topology.range(), neighbors)?
            }
        };
        let nodes = match child.nodes {
            None => Arc::clone(&self.nodes),
            Some(records) => {
                validate_nodes(n, self.cache.capacity_pairs(), records)?;
                rehydrate_nodes(records, self.cache)
            }
        };
        Ok(FrozenCheckpoint {
            tick: child.tick,
            cache: self.cache,
            topology,
            alive: child
                .alive
                .map_or_else(|| Arc::clone(&self.alive), Arc::from),
            values: child.values.to_vec(),
            nodes,
        })
    }

    /// Simulation time the checkpoint was taken at.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Deployment size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a zero-node image (never built: validation rejects it).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node positions, in id order.
    pub fn positions(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.topology.node_ids().map(|id| {
            let p = self.topology.position(id);
            (p.x, p.y)
        })
    }

    /// Every node's record, extracted back from the rehydrated nodes.
    /// Extraction inverts rehydration, so these equal the records the
    /// image was built from.
    pub fn node_checkpoints(&self) -> Vec<NodeCheckpoint> {
        self.nodes.iter().map(extract_node).collect()
    }

    /// Whether `other` shares this image's topology, liveness and
    /// nodes, part by part (pointer equality, not value equality).
    pub fn shares_with(&self, other: &FrozenCheckpoint) -> [bool; 3] {
        [
            Arc::ptr_eq(&self.topology, &other.topology),
            Arc::ptr_eq(&self.alive, &other.alive),
            Arc::ptr_eq(&self.nodes, &other.nodes),
        ]
    }

    /// Answer `query` at `sink` — the `AS OF <tick>` time-travel path.
    /// Pure and side-effect free: no simulator, no energy accounting,
    /// no clock. Byte-identical to querying the live deployment the
    /// checkpoint was taken from (or a same-seed replay of it),
    /// because both funnel into [`execute_frozen`] with identical
    /// inputs.
    ///
    /// Mirrors `try_query`'s availability contract: a dead (or absent)
    /// sink, or a fully-dead network, returns
    /// [`CoreError::NetworkUnavailable`].
    pub fn execute(&self, query: &SnapshotQuery, sink: NodeId) -> Result<QueryResult, CoreError> {
        let alive = |id: NodeId| self.alive.get(id.index()).copied().unwrap_or(false);
        let alive_count = self.alive.iter().filter(|&&a| a).count();
        if alive_count == 0 || !alive(sink) {
            return Err(CoreError::NetworkUnavailable { alive: alive_count });
        }
        let (result, _participants) = execute_frozen(
            &self.topology,
            alive,
            &self.nodes,
            &self.values,
            query,
            sink,
        );
        Ok(result)
    }
}

/// Execute a query against a checkpoint alone: builds the checkpoint's
/// [`FrozenCheckpoint`] and answers on it once.
pub fn execute_at(
    cp: &CheckpointState,
    query: &SnapshotQuery,
    sink: NodeId,
) -> Result<QueryResult, CoreError> {
    FrozenCheckpoint::new(cp)?.execute(query, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SnapshotConfig;
    use crate::network::SensorNetwork;
    use crate::query::{Aggregate, QueryMode, SpatialPredicate};
    use snapshot_datagen::{random_walk, RandomWalkConfig};
    use snapshot_netsim::{EnergyModel, LinkModel};

    fn deployment(seed: u64) -> SensorNetwork {
        let data = random_walk(&RandomWalkConfig {
            n_nodes: 60,
            ..RandomWalkConfig::paper_defaults(3, seed)
        })
        .unwrap();
        let topo =
            Topology::random_uniform(60, std::f64::consts::SQRT_2, seed).expect("valid deployment");
        let mut sn = SensorNetwork::new(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            SnapshotConfig::paper(1.0, 2048, seed),
            data.trace,
        );
        sn.train(0, 10);
        sn.set_time(40);
        let _ = sn.elect();
        sn
    }

    #[test]
    fn checkpoint_is_deterministic_and_validates() {
        let sn = deployment(5);
        let a = sn.checkpoint();
        let b = sn.checkpoint();
        assert_eq!(a, b, "extraction must be a pure read");
        a.validate().expect("live checkpoint validates");
        assert_eq!(a.len(), 60);
        assert_eq!(a.tick, 40);
    }

    #[test]
    fn quality_matches_live_accounting() {
        let mut sn = deployment(7);
        let q = sn.checkpoint().quality();
        assert_eq!(q.nodes, 60);
        assert_eq!(q.alive, 60);
        assert_eq!(q.active, sn.snapshot_size());
        assert_eq!(q.active + q.passive + q.undefined, q.alive);
        assert_eq!(q.stale_links, 0);
        assert!((q.coverage - 1.0).abs() < 1e-12);

        // Kill a representative: its members' links go stale.
        let rep = sn.snapshot().representatives()[0];
        let members = sn.snapshot().members_of(rep).len();
        sn.net_mut().kill(rep);
        let q = sn.checkpoint().quality();
        assert_eq!(q.alive, 59);
        assert_eq!(q.stale_links, members);
    }

    #[test]
    fn execute_at_matches_the_live_query_exactly() {
        let mut sn = deployment(11);
        let cp = sn.checkpoint();
        for query in [
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot),
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular),
            SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Snapshot)
                .with_representative_routing(),
        ] {
            let live = sn.query(&query, NodeId(0));
            let frozen = execute_at(&cp, &query, NodeId(0)).expect("checkpoint answers");
            assert_eq!(live, frozen, "frozen answer drifted from live");
        }
    }

    #[test]
    fn a_derived_image_answers_like_a_fresh_one_and_shares_what_is_unchanged() {
        let mut sn = deployment(23);
        let parent_cp = sn.checkpoint();
        sn.advance(3);
        sn.net_mut().kill(NodeId(7));
        let cp = sn.checkpoint();
        let parent = FrozenCheckpoint::new(&parent_cp).expect("parent builds");
        let child = parent
            .derive(&ChildParts {
                tick: cp.tick,
                values: &cp.values,
                alive: Some(&cp.alive),
                topology: None,
                nodes: None,
            })
            .expect("child derives");
        assert_eq!(parent.shares_with(&child), [true, false, true]);
        let fresh = FrozenCheckpoint::new(&cp).expect("child builds");
        for query in [
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot),
            SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Regular),
        ] {
            assert_eq!(
                child.execute(&query, NodeId(0)),
                fresh.execute(&query, NodeId(0))
            );
        }

        let short = &cp.values[1..];
        let err = parent
            .derive(&ChildParts {
                tick: cp.tick,
                values: short,
                alive: None,
                topology: None,
                nodes: None,
            })
            .expect_err("a short values vector is refused");
        assert!(matches!(err, CoreError::InvalidCheckpoint { .. }));
    }

    #[test]
    fn execute_at_refuses_a_dead_sink() {
        let mut sn = deployment(13);
        sn.net_mut().kill(NodeId(3));
        let cp = sn.checkpoint();
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Regular);
        let err = execute_at(&cp, &q, NodeId(3)).unwrap_err();
        assert_eq!(err, CoreError::NetworkUnavailable { alive: 59 });
    }

    #[test]
    fn restore_checkpoint_round_trips() {
        let mut sn = deployment(17);
        sn.net_mut().kill(NodeId(9));
        sn.advance(5);
        let _ = sn.maintain();
        let cp = sn.checkpoint();

        // A freshly-built twin restored from the checkpoint answers
        // queries identically to the original.
        let mut twin = {
            let data = random_walk(&RandomWalkConfig {
                n_nodes: 60,
                ..RandomWalkConfig::paper_defaults(3, 17)
            })
            .unwrap();
            let topo = Topology::random_uniform(60, std::f64::consts::SQRT_2, 17)
                .expect("valid deployment");
            SensorNetwork::new(
                topo,
                LinkModel::Perfect,
                EnergyModel::default(),
                SnapshotConfig::paper(1.0, 2048, 17),
                data.trace,
            )
        };
        twin.restore_checkpoint(&cp).expect("shapes match");
        assert_eq!(twin.now(), sn.now());
        assert_eq!(twin.epoch(), sn.epoch());
        assert_eq!(twin.checkpoint(), cp, "re-extraction is idempotent");
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot);
        assert_eq!(twin.query(&q, NodeId(0)), sn.query(&q, NodeId(0)));
    }

    #[test]
    fn a_budget_far_above_the_pairs_restores_only_the_pairs() {
        let mut cp = deployment(23).checkpoint();
        cp.budget_bytes = 1 << 30;
        let image = FrozenCheckpoint::new(&cp).expect("valid checkpoint");
        assert!(image.nodes.iter().all(|n| n.cache.total_pairs() > 0));
        for node in image.nodes.iter() {
            assert_eq!(node.cache.slab_capacity(), node.cache.total_pairs());
        }
    }

    #[test]
    fn malformed_checkpoints_are_rejected_with_typed_errors() {
        let sn = deployment(19);
        let good = sn.checkpoint();

        let mut bad = good.clone();
        bad.alive.pop();
        assert!(matches!(
            bad.validate(),
            Err(CoreError::InvalidCheckpoint { .. })
        ));

        let mut bad = good.clone();
        bad.nodes[0].rep_of = Some((999, 1));
        assert!(matches!(
            bad.validate(),
            Err(CoreError::InvalidCheckpoint { .. })
        ));

        let mut bad = good.clone();
        if let Some(line) = bad.nodes.iter_mut().flat_map(|n| n.lines.iter_mut()).next() {
            line.stats.n += 1;
            assert!(matches!(
                bad.validate(),
                Err(CoreError::InvalidCheckpoint { .. })
            ));
        }

        // Cache lines out of key order, or a key repeated: the encoder
        // always writes each node's lines strictly ascending.
        let node = good
            .nodes
            .iter()
            .position(|n| n.lines.len() >= 2)
            .expect("a trained node caches several lines");
        let mut bad = good.clone();
        bad.nodes[node].lines.swap(0, 1);
        assert!(matches!(
            bad.validate(),
            Err(CoreError::InvalidCheckpoint { .. })
        ));
        let mut bad = good.clone();
        let first = bad.nodes[node].lines[0].clone();
        bad.nodes[node].lines.insert(1, first);
        assert!(matches!(
            bad.validate(),
            Err(CoreError::InvalidCheckpoint { .. })
        ));

        // A cache over its byte budget: the node with the most pairs
        // against a budget of one pair fewer.
        let (node, most) = good
            .nodes
            .iter()
            .map(|n| n.lines.iter().map(|l| l.pairs.len()).sum::<usize>())
            .enumerate()
            .max_by_key(|&(_, pairs)| pairs)
            .expect("the deployment has nodes");
        let mut bad = good.clone();
        bad.budget_bytes = (most as u64 - 1) * bad.pair_bytes;
        assert_eq!(
            bad.validate(),
            Err(CoreError::InvalidCheckpoint {
                detail: "cache holds more pairs than its byte budget allows",
            })
        );
        bad.budget_bytes = most as u64 * bad.pair_bytes;
        assert_eq!(
            bad.validate(),
            Ok(()),
            "a cache exactly at its budget is valid"
        );
        // A delta's node records are held to the parent image's budget.
        let mut tight = good.clone();
        tight.budget_bytes = most as u64 * tight.pair_bytes;
        let parent = FrozenCheckpoint::new(&tight).expect("at budget");
        let mut records = good.nodes.clone();
        records[node].lines[0].pairs.push((0.0, 0.0));
        records[node].lines[0].stats.n += 1;
        let err = parent
            .derive(&ChildParts {
                tick: good.tick,
                values: &good.values,
                alive: None,
                topology: None,
                nodes: Some(&records),
            })
            .expect_err("a record over the budget is refused");
        assert!(matches!(err, CoreError::InvalidCheckpoint { .. }));

        // quality() on malformed data must not panic.
        let mut bad = good;
        bad.alive.clear();
        let q = bad.quality();
        assert_eq!(q.alive, 0);
    }
}
