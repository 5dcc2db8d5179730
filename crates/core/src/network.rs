//! `SensorNetwork`: the deployment-level facade.
//!
//! Wires a [`snapshot_netsim::Network`] carrying [`ProtocolMsg`]
//! traffic to a vector of [`SensorNode`] state machines and a
//! measurement [`Trace`], and exposes the operations the paper's
//! experiments are built from: training (the initial select-all query
//! whose broadcasts let neighbors build models), full elections,
//! maintenance cycles, snooping windows, and query execution in both
//! modes.

use crate::checkpoint::CheckpointState;
use crate::config::SnapshotConfig;
use crate::election::{run_full_election, ElectionOutcome, ProtocolMsg};
use crate::error::CoreError;
use crate::maintenance::reconcile::ReconcileReport;
use crate::maintenance::repair::RepairTracker;
use crate::maintenance::{
    reconcile, rotate_representatives, run_handoff_check, run_maintenance, MaintenanceReport,
    StepDownReport,
};
use crate::query::tag::{execute_tag, TagResult};
use crate::query::{execute_with, QueryMode, QueryResult, Readings, SnapshotQuery};
use crate::sensor::SensorNode;
use crate::snapshot::{count_spurious, Snapshot};
use snapshot_datagen::Trace;
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::rng::derive_seed;
use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_netsim::telemetry::QueryStatus;
use snapshot_netsim::{
    Delivery, EnergyModel, Event, LinkModel, NetStats, Network, NodeId, Phase, SpanKind, Telemetry,
    Topology,
};

/// A full sensor-network deployment.
///
/// `Clone` replicates all protocol and cache state; the clone's
/// protocol RNG is re-seeded deterministically (from the seed and the
/// current epoch), so clones are reproducible but do not continue the
/// parent's exact random stream.
#[derive(Debug)]
pub struct SensorNetwork {
    net: Network<ProtocolMsg>,
    nodes: Vec<SensorNode>,
    cfg: SnapshotConfig,
    trace: Trace,
    now: usize,
    epoch: Epoch,
    rng: DetRng,
    query_seq: u64,
    repair: RepairTracker,
    /// Open telemetry span covering the current repair episode
    /// (0 = none). Opened by [`Self::kill_representative`], closed by
    /// `observe_repair` when every orphan is re-covered.
    repair_span: u64,
    /// Recycled drain-candidate buffer for [`Self::broadcast_and_snoop`]
    /// (pure capacity — always logically empty between steps).
    scratch_ids: Vec<NodeId>,
    /// Recycled inbox buffer for [`Self::broadcast_and_snoop`].
    scratch_inbox: Vec<Delivery<ProtocolMsg>>,
}

impl Clone for SensorNetwork {
    fn clone(&self) -> Self {
        SensorNetwork {
            net: self.net.clone(),
            nodes: self.nodes.clone(),
            cfg: self.cfg,
            trace: self.trace.clone(),
            now: self.now,
            epoch: self.epoch,
            rng: DetRng::seed_from_u64(derive_seed(self.cfg.seed, 0x2_C10 ^ self.epoch.0)),
            query_seq: self.query_seq,
            repair: self.repair.clone(),
            repair_span: self.repair_span,
            // Scratch buffers are pure capacity; clones start cold.
            scratch_ids: Vec::new(),
            scratch_inbox: Vec::new(),
        }
    }
}

/// Scans over one fixed network state, sharing what they read:
/// [`SensorNetwork::scan_batch`] opens one, [`ScanBatch::query`] runs
/// each scan.
///
/// Each scan does exactly what [`SensorNetwork::query`] does, in the
/// same order. The batch also keeps a per-node table of readings (what
/// each node reports, and who reports it), so a node's reading is
/// computed at most once per mode across the batch's scans. The batch
/// holds the network's mutable borrow and exposes nothing else that
/// changes state, so nothing can change between its scans except a
/// query charge that drains a battery. A drain lowers the alive count,
/// which empties the table before the next scan.
#[derive(Debug)]
pub struct ScanBatch<'a> {
    net: &'a mut Network<ProtocolMsg>,
    nodes: &'a [SensorNode],
    /// The measurements at the network's current time, borrowed from
    /// the trace.
    values: &'a [f64],
    repair: &'a mut RepairTracker,
    query_seq: &'a mut u64,
    sink: NodeId,
    /// `None` for a one-shot query, which computes every reading.
    readings: Option<Readings>,
}

impl ScanBatch<'_> {
    /// Execute `query` collected at the batch's sink: the span, the
    /// query events, the participants' charges and stats and the
    /// repair bookkeeping of [`SensorNetwork::query`].
    pub fn query(&mut self, query: &SnapshotQuery) -> QueryResult {
        let qspan = self.net.open_span(SpanKind::Query);
        let span = begin_query_span(self.net, self.query_seq, self.sink, query);
        let readings = self.readings.as_mut();
        let result = execute_with(
            self.net,
            self.nodes,
            self.values,
            query,
            self.sink,
            readings,
        );
        end_query_span(self.net, span, QueryStatus::Ok, result.participants as u32);
        self.net.close_span(qspan);
        self.repair.record_query(result.absolute_error());
        result
    }

    /// Open a telemetry span around the batch's scans (see
    /// [`Network::open_span`]).
    pub fn open_span(&mut self, kind: SpanKind) -> u64 {
        self.net.open_span(kind)
    }

    /// Close a span opened by [`ScanBatch::open_span`].
    pub fn close_span(&mut self, id: u64) {
        self.net.close_span(id);
    }
}

/// Open a query span: allocate an id from `query_seq` and emit
/// `QueryBegin`. Returns `None` (and stays silent) when telemetry is
/// off.
fn begin_query_span(
    net: &mut Network<ProtocolMsg>,
    query_seq: &mut u64,
    sink: NodeId,
    query: &SnapshotQuery,
) -> Option<u64> {
    if !net.telemetry_enabled() {
        return None;
    }
    *query_seq += 1;
    let id = *query_seq;
    let tick = net.round();
    net.emit(Event::QueryBegin {
        tick,
        id,
        sink: sink.0,
        snapshot_mode: matches!(query.mode, QueryMode::Snapshot),
    });
    Some(id)
}

/// Close a query span opened by [`begin_query_span`].
fn end_query_span(
    net: &mut Network<ProtocolMsg>,
    span: Option<u64>,
    status: QueryStatus,
    participants: u32,
) {
    if let Some(id) = span {
        let tick = net.round();
        net.emit(Event::QueryEnd {
            tick,
            id,
            status,
            participants,
        });
    }
}

/// Broadcast `j`'s current measurement (free function so the caller
/// can keep a borrowed trace snapshot alive across the send loop).
fn send_measurement(net: &mut Network<ProtocolMsg>, values: &[f64], j: NodeId) {
    if net.is_alive(j) {
        let msg = ProtocolMsg::Data {
            value: values[j.index()],
        };
        let bytes = msg.wire_bytes();
        net.broadcast(j, msg, bytes, Phase::Data);
    }
}

impl SensorNetwork {
    /// Build a deployment with infinite batteries (the Section 6.1
    /// sensitivity-analysis setting).
    ///
    /// # Panics
    /// Panics when the trace's node count differs from the topology's
    /// or the configuration is invalid — both are experiment-definition
    /// errors.
    pub fn new(
        topology: Topology,
        link: LinkModel,
        energy: EnergyModel,
        cfg: SnapshotConfig,
        trace: Trace,
    ) -> Self {
        let net = Network::new(topology, link, energy, derive_seed(cfg.seed, 1));
        Self::from_parts(net, cfg, trace)
    }

    /// Build a deployment where every node starts with `capacity`
    /// transmission-equivalents of battery (Figure 10 uses 500).
    pub fn with_battery_capacity(
        topology: Topology,
        link: LinkModel,
        energy: EnergyModel,
        capacity: f64,
        cfg: SnapshotConfig,
        trace: Trace,
    ) -> Self {
        let net = Network::with_finite_batteries(
            topology,
            link,
            energy,
            capacity,
            derive_seed(cfg.seed, 1),
        );
        Self::from_parts(net, cfg, trace)
    }

    #[expect(
        clippy::expect_used,
        reason = "constructor fail-fast on a bad experiment definition, like the trace-size assert"
    )]
    fn from_parts(net: Network<ProtocolMsg>, cfg: SnapshotConfig, trace: Trace) -> Self {
        assert_eq!(
            net.len(),
            trace.nodes(),
            "trace covers {} nodes but the topology has {}",
            trace.nodes(),
            net.len()
        );
        cfg.validate().expect("invalid snapshot configuration");
        let nodes = net
            .node_ids()
            .map(|id| SensorNode::new(id, cfg.cache))
            .collect();
        let rng = DetRng::seed_from_u64(derive_seed(cfg.seed, 2));
        SensorNetwork {
            net,
            nodes,
            cfg,
            trace,
            now: 0,
            epoch: Epoch(0),
            rng,
            query_seq: 0,
            repair: RepairTracker::new(),
            repair_span: 0,
            scratch_ids: Vec::new(),
            scratch_inbox: Vec::new(),
        }
    }

    // ---- Accessors -----------------------------------------------------

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the deployment has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The underlying radio network.
    pub fn net(&self) -> &Network<ProtocolMsg> {
        &self.net
    }

    /// Mutable access to the radio network (failure injection,
    /// statistics resets).
    pub fn net_mut(&mut self) -> &mut Network<ProtocolMsg> {
        &mut self.net
    }

    /// One node's protocol state.
    pub fn node(&self, id: NodeId) -> &SensorNode {
        &self.nodes[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// The configuration in force.
    pub fn config(&self) -> &SnapshotConfig {
        &self.cfg
    }

    /// Adjust the representation threshold `T` for subsequent
    /// elections and maintenance checks (Section 3.1: each snapshot
    /// query may define its own error threshold).
    pub fn set_threshold(&mut self, threshold: f64) {
        assert!(
            threshold >= 0.0,
            "threshold must be non-negative, got {threshold}"
        );
        self.cfg.threshold = threshold;
    }

    /// Change the error metric (and threshold) for subsequent
    /// elections — the `d()` of Section 3 is application-chosen.
    pub fn set_metric(&mut self, metric: crate::metrics::ErrorMetric, threshold: f64) {
        assert!(
            threshold >= 0.0,
            "threshold must be non-negative, got {threshold}"
        );
        self.cfg.metric = metric;
        self.cfg.threshold = threshold;
    }

    /// Adjust the probability of caching values carried by maintenance
    /// invitations (see [`SnapshotConfig::invite_learn_prob`]).
    pub fn set_invite_learn_prob(&mut self, prob: f64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "probability expected, got {prob}"
        );
        self.cfg.invite_learn_prob = prob;
    }

    /// Enable (or adjust) the Section 5.1 energy-aware handoff: during
    /// maintenance, a representative whose battery fraction is below
    /// this value announces a handoff and its members re-elect.
    /// Setting 0 disables the behavior.
    pub fn set_energy_handoff_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "handoff fraction must be a probability, got {fraction}"
        );
        self.cfg.energy_handoff_fraction = fraction;
    }

    /// Message statistics.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Current simulation time (index into the trace; clamped reads
    /// past the end hold the last value).
    pub fn now(&self) -> usize {
        self.now
    }

    /// Jump to an absolute time.
    pub fn set_time(&mut self, t: usize) {
        self.now = t;
    }

    /// Advance time by `dt`.
    pub fn advance(&mut self, dt: usize) {
        self.now += dt;
    }

    /// Current election epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// `N_i`'s current measurement.
    pub fn value(&self, id: NodeId) -> f64 {
        self.trace.value(id, self.trace_step())
    }

    /// Every node's current measurement.
    pub fn values(&self) -> Vec<f64> {
        self.trace.snapshot_at(self.trace_step()).to_vec()
    }

    /// The trace step read at the current time: reads past the end hold
    /// the last step.
    fn trace_step(&self) -> usize {
        self.now.min(self.trace.steps() - 1)
    }

    // ---- Model building --------------------------------------------------

    /// Run the paper's training window: for each tick in
    /// `[from, to)`, every alive node broadcasts its measurement (the
    /// initial query "selecting the values from all nodes") and every
    /// node that hears a broadcast caches the pair. Time is left at
    /// `to` on return.
    pub fn train(&mut self, from: usize, to: usize) {
        for t in from..to {
            self.now = t;
            self.broadcast_and_snoop(None, 1.0);
        }
        self.now = to;
    }

    /// One snooping step (Section 6.3's maintenance runs): nodes in
    /// `participants` (all alive nodes when `None`) broadcast their
    /// measurements; each hearer caches each heard pair independently
    /// with probability `snoop_prob`.
    pub fn snoop_step(&mut self, participants: Option<&[NodeId]>, snoop_prob: f64) {
        self.broadcast_and_snoop(participants, snoop_prob);
    }

    /// Steady-state allocation contract (DESIGN.md §16): no per-step
    /// id-list or value-snapshot clones. Measurements are read from a
    /// borrowed trace snapshot, the `participants: None` sender loop is
    /// index-driven, and the receive side visits only the wake-list
    /// (nodes the delivery round actually reached) through two
    /// recycled scratch buffers.
    fn broadcast_and_snoop(&mut self, participants: Option<&[NodeId]>, snoop_prob: f64) {
        let values = self.trace.snapshot_at(self.trace_step());
        match participants {
            Some(p) => {
                for &j in p {
                    send_measurement(&mut self.net, values, j);
                }
            }
            None => {
                for i in 0..self.nodes.len() {
                    send_measurement(&mut self.net, values, NodeId::from_index(i));
                }
            }
        }
        self.net.deliver();
        let mut drain_ids = std::mem::take(&mut self.scratch_ids);
        self.net.drain_candidates_into(&mut drain_ids);
        let mut inbox = std::mem::take(&mut self.scratch_inbox);
        for &i in &drain_ids {
            self.net.take_inbox_into(i, &mut inbox);
            let own = values[i.index()];
            for d in inbox.drain(..) {
                if let ProtocolMsg::Data { value } = d.payload {
                    if snoop_prob < 1.0 && !self.rng.random_bool(snoop_prob) {
                        continue;
                    }
                    let decision = self.nodes[i.index()].cache.observe(d.from, own, value);
                    crate::trace::record_cache_decision(
                        &mut self.net,
                        i,
                        d.from,
                        &decision,
                        &self.nodes[i.index()].cache,
                    );
                    self.net.charge_cache_update(i);
                }
            }
        }
        self.scratch_inbox = inbox;
        self.scratch_ids = drain_ids;
    }

    // ---- Protocol operations ----------------------------------------------

    /// Run a full network-wide election at the current time.
    pub fn elect(&mut self) -> ElectionOutcome {
        self.epoch = self.epoch.next();
        let values = self.trace.snapshot_at(self.trace_step());
        let outcome = run_full_election(
            &mut self.net,
            &mut self.nodes,
            values,
            &self.cfg,
            self.epoch,
            &mut self.rng,
        );
        self.observe_repair();
        outcome
    }

    /// Run one maintenance cycle (heartbeats + re-elections) at the
    /// current time. When a repair episode is open (see
    /// [`Self::kill_representative`]), the orphan set is re-examined
    /// afterwards, closing the episode once everyone is re-covered.
    pub fn maintain(&mut self) -> MaintenanceReport {
        self.epoch = self.epoch.next();
        let span = self.net.open_span(SpanKind::Maintenance);
        let values = self.trace.snapshot_at(self.trace_step());
        let report = run_maintenance(
            &mut self.net,
            &mut self.nodes,
            values,
            &self.cfg,
            self.epoch,
            &mut self.rng,
        );
        self.observe_repair();
        self.net.close_span(span);
        report
    }

    /// Run only the energy-handoff check: exhausted representatives
    /// (battery below the configured fraction) hand their members off
    /// to fresh nodes. Cheap enough to run every few queries: a check
    /// that steps nobody down sends and delivers nothing.
    pub fn check_handoffs(&mut self) -> StepDownReport {
        self.epoch = self.epoch.next();
        let span = self.net.open_span(SpanKind::HandoffCheck);
        let values = self.trace.snapshot_at(self.trace_step());
        let report = run_handoff_check(
            &mut self.net,
            &mut self.nodes,
            values,
            &self.cfg,
            self.epoch,
            &mut self.rng,
        );
        self.net.close_span(span);
        report
    }

    /// LEACH-style rotation: each representative steps down with the
    /// given probability and its members re-elect.
    pub fn rotate(&mut self, rotation_prob: f64) -> StepDownReport {
        self.epoch = self.epoch.next();
        let span = self.net.open_span(SpanKind::Rotation);
        let values = self.trace.snapshot_at(self.trace_step());
        let report = rotate_representatives(
            &mut self.net,
            &mut self.nodes,
            values,
            &self.cfg,
            self.epoch,
            &mut self.rng,
            rotation_prob,
        );
        self.net.close_span(span);
        report
    }

    /// One spurious-claim reconciliation pass (announce / object /
    /// correct).
    pub fn reconcile(&mut self) -> ReconcileReport {
        let span = self.net.open_span(SpanKind::Reconcile);
        let report = reconcile(&mut self.net, &mut self.nodes);
        self.net.close_span(span);
        report
    }

    // ---- Failure injection & repair measurement ---------------------------

    /// Kill `rep` and open a repair episode tracking its orphaned
    /// members (alive nodes currently pointing at `rep`). Returns the
    /// orphan count. Subsequent [`Self::maintain`] calls close the
    /// episode once every surviving orphan is re-covered; the
    /// measured [`RepairRecord`](crate::maintenance::repair::RepairRecord)s
    /// are available through [`Self::repair`].
    pub fn kill_representative(&mut self, rep: NodeId) -> usize {
        let orphans: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.id() != rep && n.representative() == Some(rep))
            .map(|n| n.id())
            .filter(|&j| self.net.is_alive(j))
            .collect();
        self.net.kill(rep);
        let tick = self.net.round();
        self.repair.begin(rep, tick, orphans.iter().copied());
        if self.repair_span == 0 {
            self.repair_span = self.net.open_span(SpanKind::Repair);
        }
        orphans.len()
    }

    /// The repair tracker: open episode state and finished
    /// time-to-repair records.
    pub fn repair(&self) -> &RepairTracker {
        &self.repair
    }

    /// Close the open repair episode if every surviving orphan points
    /// at an alive representative again (or represents itself).
    fn observe_repair(&mut self) {
        if !self.repair.in_repair() {
            return;
        }
        let tick = self.net.round();
        let net = &self.net;
        let nodes = &self.nodes;
        self.repair.observe(tick, |j| {
            if !net.is_alive(j) {
                // Dead orphans need no representative.
                return true;
            }
            let r = nodes[j.index()].representative().unwrap_or(j);
            net.is_alive(r)
        });
        if !self.repair.in_repair() && self.repair_span != 0 {
            self.net.close_span(self.repair_span);
            self.repair_span = 0;
        }
    }

    /// Execute a query collected at `sink`.
    ///
    /// While a repair episode is open (see
    /// [`Self::kill_representative`]) the query's absolute aggregate
    /// error is accumulated into the episode's record — the
    /// query-error-during-repair metric of the `heal` experiment.
    pub fn query(&mut self, query: &SnapshotQuery, sink: NodeId) -> QueryResult {
        self.batch(sink, None).query(query)
    }

    /// Open a batch of scans collected at `sink` over the current
    /// state. Each [`ScanBatch::query`] answers exactly what
    /// [`Self::query`] would, charges the same nodes and records the
    /// same telemetry; the batch computes each node's reading at most
    /// once across its scans. See [`ScanBatch`].
    pub fn scan_batch(&mut self, sink: NodeId) -> ScanBatch<'_> {
        let readings = Readings::new(self.nodes.len());
        self.batch(sink, Some(readings))
    }

    /// A batch at `sink`, reading through `readings` when given.
    fn batch(&mut self, sink: NodeId, readings: Option<Readings>) -> ScanBatch<'_> {
        let t = self.trace_step();
        ScanBatch {
            net: &mut self.net,
            nodes: &self.nodes,
            values: self.trace.snapshot_at(t),
            repair: &mut self.repair,
            query_seq: &mut self.query_seq,
            sink,
            readings,
        }
    }

    /// Execute a query, first checking the network can answer at all.
    ///
    /// Returns [`CoreError::NetworkUnavailable`] — instead of a
    /// zero-coverage [`QueryResult`] that looks like data — when every
    /// node is dead (e.g. after a fault-engine region blackout swallows
    /// the whole deployment) or when `sink` itself is dead. The failed
    /// attempt still appears in the telemetry trace as a `QueryEnd`
    /// with status `error`.
    pub fn try_query(
        &mut self,
        query: &SnapshotQuery,
        sink: NodeId,
    ) -> Result<QueryResult, CoreError> {
        let alive = self.net.alive_count();
        if alive == 0 || !self.net.is_alive(sink) {
            let qspan = self.net.open_span(SpanKind::Query);
            let span = begin_query_span(&mut self.net, &mut self.query_seq, sink, query);
            end_query_span(&mut self.net, span, QueryStatus::Error, 0);
            self.net.close_span(qspan);
            return Err(CoreError::NetworkUnavailable { alive });
        }
        Ok(self.query(query, sink))
    }

    /// Execute an aggregate query as the full message-level TAG
    /// protocol: tree formation by real flooding, partial aggregates
    /// as real (lossy) unicasts. See [`crate::query::tag`].
    ///
    /// Returns [`CoreError::MissingAggregate`] when `query.aggregate`
    /// is `None`.
    pub fn query_tag(
        &mut self,
        query: &SnapshotQuery,
        sink: NodeId,
    ) -> Result<TagResult, CoreError> {
        let values = self.trace.snapshot_at(self.trace_step());
        let qspan = self.net.open_span(SpanKind::Query);
        let span = begin_query_span(&mut self.net, &mut self.query_seq, sink, query);
        let result = execute_tag(&mut self.net, &self.nodes, values, query, sink);
        let (status, participants) = match &result {
            Ok(tag) => (QueryStatus::Ok, tag.tree_size as u32),
            Err(CoreError::MissingAggregate) => (QueryStatus::MissingAggregate, 0),
            Err(_) => (QueryStatus::Error, 0),
        };
        end_query_span(&mut self.net, span, status, participants);
        self.net.close_span(qspan);
        result
    }

    // ---- Telemetry --------------------------------------------------------

    /// Switch on event tracing and metrics: a bounded ring of
    /// `capacity` events plus the counter/energy registry. Call before
    /// the operations to observe; export with
    /// [`SensorNetwork::export_trace_jsonl`].
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.net.set_telemetry(Telemetry::full(capacity));
    }

    /// Disable tracing (back to the zero-overhead no-op recorder).
    pub fn disable_telemetry(&mut self) {
        self.net.set_telemetry(Telemetry::off());
    }

    /// The recorded trace as JSON-lines (empty when telemetry is off
    /// or nothing was recorded).
    pub fn export_trace_jsonl(&self) -> String {
        self.net.telemetry().export_jsonl().unwrap_or_default()
    }

    // ---- Inspection -------------------------------------------------------

    /// The reconciled snapshot view.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_nodes(&self.nodes)
    }

    /// Snapshot size `n1`: alive ACTIVE nodes.
    pub fn snapshot_size(&self) -> usize {
        self.net
            .node_ids()
            .filter(|&i| self.net.is_alive(i) && self.nodes[i.index()].is_active())
            .count()
    }

    /// Number of spurious representatives (Figure 13's metric).
    pub fn spurious_representatives(&self) -> usize {
        count_spurious(&self.nodes)
    }

    /// Mean squared error of the estimates representatives would give
    /// for the nodes they represent, at the current time (Figure 12's
    /// metric). `None` when nobody is represented.
    pub fn mean_estimate_sse(&self) -> Option<f64> {
        let values = self.trace.snapshot_at(self.trace_step());
        let mut sum = 0.0;
        let mut n = 0usize;
        for node in &self.nodes {
            let j = node.id();
            if let Some(rep) = node.representative() {
                if let Some(est) = self.nodes[rep.index()]
                    .cache
                    .estimate(j, values[rep.index()])
                {
                    let e = est - values[j.index()];
                    sum += e * e;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// A deterministic RNG stream for experiment-level randomness
    /// (e.g. random sinks), derived from the configuration seed.
    pub fn experiment_rng(&self) -> DetRng {
        DetRng::seed_from_u64(derive_seed(self.cfg.seed, 3))
    }

    // ---- Checkpointing ----------------------------------------------------

    /// Extract a persistable [`CheckpointState`]: topology (adjacency
    /// verbatim), aliveness, current measurements, and every node's
    /// protocol and cache state with bit-exact statistics. A pure
    /// read — extracting twice yields equal states.
    pub fn checkpoint(&self) -> CheckpointState {
        crate::checkpoint::extract(
            &self.net,
            &self.nodes,
            self.now,
            self.epoch.0,
            self.values(),
        )
    }

    /// Rehydrate this deployment from a checkpoint taken on an
    /// identically-constructed one (same topology, configuration and
    /// trace): restores time, epoch, per-node aliveness and all
    /// protocol/cache state, so queries answer exactly as they would
    /// have on the checkpointed original.
    ///
    /// The protocol RNG is re-seeded deterministically from the seed
    /// and restored epoch (the same scheme [`Clone`] uses), so a
    /// restored deployment is reproducible but does not continue the
    /// original's exact random stream. Aliveness is restored through
    /// the fault-injection API: reviving a battery-depleted corpse is
    /// impossible, so restoring onto a deployment whose batteries have
    /// already drained past the checkpoint is unsupported.
    pub fn restore_checkpoint(&mut self, cp: &CheckpointState) -> Result<(), CoreError> {
        cp.validate()?;
        if cp.nodes.len() != self.nodes.len() {
            return Err(CoreError::InvalidCheckpoint {
                detail: "checkpoint size differs from the deployment",
            });
        }
        self.now = cp.tick as usize;
        self.epoch = Epoch(cp.epoch);
        self.rng = DetRng::seed_from_u64(derive_seed(self.cfg.seed, 0x2_C10 ^ self.epoch.0));
        for i in 0..self.nodes.len() {
            let id = NodeId::from_index(i);
            if cp.alive[i] != self.net.is_alive(id) {
                if cp.alive[i] {
                    self.net.revive(id);
                } else {
                    self.net.kill(id);
                }
            }
        }
        crate::checkpoint::apply_nodes(cp, &mut self.nodes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, QueryMode, SpatialPredicate};
    use snapshot_datagen::{random_walk, RandomWalkConfig};

    /// The paper's canonical sensitivity setup: 100 nodes, range √2,
    /// no loss, cache 2048 B, T = 1, train on the first 10 ticks,
    /// elect at t = 100.
    fn paper_setup(k: usize, seed: u64) -> SensorNetwork {
        let data = random_walk(&RandomWalkConfig::paper_defaults(k, seed)).unwrap();
        let topo = Topology::random_uniform(100, std::f64::consts::SQRT_2, seed)
            .expect("valid deployment");
        let cfg = SnapshotConfig::paper(1.0, 2048, seed);
        let mut sn = SensorNetwork::new(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            cfg,
            data.trace,
        );
        sn.train(0, 10);
        sn.set_time(99);
        sn
    }

    #[test]
    fn a_node_revived_at_the_invitation_round_starts_with_clean_scratch() {
        use snapshot_netsim::{FaultEvent, FaultKind, FaultPlan, FaultTarget};
        let mut sn = paper_setup(1, 42);
        let _ = sn.elect();
        let x = NodeId(7);
        let listed = sn.node(x).cand_list.clone();
        assert!(!listed.is_empty(), "{x} listed no inviter");
        // Down from the next tick across the re-election's reset, and
        // back up at the tick its invitations are delivered.
        let down_at = sn.net().round() + 1;
        sn.net_mut().set_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: down_at,
            kind: FaultKind::Outage {
                target: FaultTarget::Node(x.0),
                down_for: 1,
            },
        }]));
        sn.net_mut().deliver();
        assert!(!sn.net().is_alive(x));
        let _ = sn.elect();
        assert!(sn.net().is_alive(x));
        // Same time, same models, same inviters bar `x` itself: the
        // list it broadcast is the one it built in the first election,
        // not that list with this election's invitations appended.
        assert_eq!(sn.node(x).cand_list, listed);
    }

    #[test]
    fn one_class_converges_to_a_tiny_snapshot() {
        // Figure 6, K = 1: "the network successfully picks a single
        // representative for all 100 nodes". Message loss is zero and
        // the radio covers everyone, so the snapshot should be minimal
        // (we allow a little slack for tie-break asymmetries).
        let mut sn = paper_setup(1, 42);
        let out = sn.elect();
        assert!(
            out.snapshot_size <= 3,
            "K=1 snapshot should be ~1 representative, got {}",
            out.snapshot_size
        );
        assert_eq!(out.snapshot_size + out.passive, 100);
    }

    #[test]
    fn snapshot_grows_with_class_count() {
        let mut small = paper_setup(1, 7);
        let s_small = small.elect().snapshot_size;
        let mut large = paper_setup(50, 7);
        let s_large = large.elect().snapshot_size;
        assert!(
            s_large > s_small,
            "K=50 snapshot ({s_large}) should exceed K=1 snapshot ({s_small})"
        );
    }

    #[test]
    fn election_respects_the_papers_message_bound() {
        // Table 2: at most 5 messages per node for discovery
        // (invitation + candidates + accept + up to 2 refinement);
        // one rare cascade corner legitimately adds a third
        // refinement message (notify, then inherit a member and turn
        // ACTIVE: ack + recall), so the hard bound checked here is 6.
        let mut sn = paper_setup(10, 3);
        sn.net_mut().stats_mut().reset();
        let _ = sn.elect();
        let max = sn.stats().max_sent_per_node();
        assert!(max <= 6, "a node sent {max} > 6 messages during election");
        for id in 0..100u32 {
            let id = NodeId(id);
            assert!(sn.stats().sent_in_phase(id, Phase::Invitation) <= 1);
            assert!(sn.stats().sent_in_phase(id, Phase::Candidates) <= 1);
            assert!(sn.stats().sent_in_phase(id, Phase::Accept) <= 1);
            assert!(sn.stats().sent_in_phase(id, Phase::Refinement) <= 3);
        }
    }

    #[test]
    fn snapshot_queries_save_participants_on_real_elections() {
        let mut sn = paper_setup(1, 11);
        let _ = sn.elect();
        let mut rng = sn.experiment_rng();
        let mut saved = 0usize;
        for _ in 0..20 {
            let x: f64 = rng.random_f64();
            let y: f64 = rng.random_f64();
            let sink = NodeId(rng.random_range(0..100u32));
            let pred = SpatialPredicate::window(x, y, 0.5);
            let reg = sn.query(
                &SnapshotQuery::aggregate(pred, Aggregate::Sum, QueryMode::Regular),
                sink,
            );
            let snap = sn.query(
                &SnapshotQuery::aggregate(pred, Aggregate::Sum, QueryMode::Snapshot),
                sink,
            );
            assert!(snap.participants <= reg.participants);
            saved += reg.participants - snap.participants;
        }
        assert!(saved > 0, "snapshot queries never saved a participant");
    }

    #[test]
    fn estimates_respect_the_threshold_at_election_time() {
        // Immediately after election, every represented node's
        // estimate was checked against T (= 1, sse): verify through
        // the public accessor.
        let mut sn = paper_setup(5, 13);
        let _ = sn.elect();
        if let Some(sse) = sn.mean_estimate_sse() {
            assert!(
                sse <= 1.5,
                "mean estimate sse {sse} far above the threshold"
            );
        }
    }

    #[test]
    fn maintenance_on_healthy_network_is_calm() {
        let mut sn = paper_setup(1, 17);
        let _ = sn.elect();
        let before = sn.snapshot_size();
        let report = sn.maintain();
        // No deaths, perfect radio, static-ish walk: no silence
        // failures; snapshot stays small.
        assert_eq!(report.silence_detected, 0);
        let after = sn.snapshot_size();
        assert!(
            after <= before + 3,
            "snapshot exploded: {before} -> {after}"
        );
    }

    #[test]
    fn killed_representative_self_heals_via_maintenance() {
        let mut sn = paper_setup(1, 19);
        let _ = sn.elect();
        let snapshot = sn.snapshot();
        let rep = snapshot.representatives()[0];
        let members = snapshot.members_of(rep).len();
        assert!(members > 0);
        sn.net_mut().kill(rep);
        let report = sn.maintain();
        assert!(
            report.silence_detected > 0,
            "nobody noticed the dead representative"
        );
        // Every survivor has an alive representative again.
        for id in 0..100u32 {
            let id = NodeId(id);
            if !sn.net().is_alive(id) {
                continue;
            }
            let r = sn.node(id).representative().unwrap_or(id);
            assert!(
                sn.net().is_alive(r),
                "{id} points at dead representative {r}"
            );
        }
    }

    #[test]
    fn a_handoff_check_that_steps_nobody_down_runs_no_round() {
        let mut sn = paper_setup(1, 17);
        let _ = sn.elect();
        sn.set_energy_handoff_fraction(0.1);
        sn.enable_telemetry(1024);
        let (round, ticks) = (sn.net().round(), sn.stats().ticks());
        let report = sn.check_handoffs();
        assert_eq!((report.stepped_down, report.election), (0, None));
        assert_eq!((sn.net().round(), sn.stats().ticks()), (round, ticks));
        let events = sn.net().telemetry().ring().expect("ring attached").events();
        let opened = |kind: SpanKind| {
            events
                .iter()
                .any(|e| matches!(e, Event::SpanOpen { span, .. } if *span == kind))
        };
        assert!(opened(SpanKind::HandoffCheck));
        assert!(!opened(SpanKind::Deliver), "the check ran a delivery round");
    }

    #[test]
    fn a_rotation_that_steps_nobody_down_runs_no_round() {
        let mut sn = paper_setup(1, 17);
        let _ = sn.elect();
        let round = sn.net().round();
        assert_eq!(sn.rotate(0.0).stepped_down, 0);
        assert_eq!(sn.net().round(), round);
    }

    #[test]
    fn repair_episode_measures_time_to_repair() {
        let mut sn = paper_setup(1, 19);
        let _ = sn.elect();
        let rep = sn.snapshot().representatives()[0];
        let orphans = sn.kill_representative(rep);
        assert!(orphans > 0, "the K=1 representative must have members");
        assert!(sn.repair().in_repair());
        let mut cycles = 0;
        while sn.repair().in_repair() && cycles < 10 {
            let _ = sn.maintain();
            cycles += 1;
        }
        assert!(!sn.repair().in_repair(), "repair never completed");
        let rec = &sn.repair().records()[0];
        assert_eq!(rec.rep, rep);
        assert_eq!(rec.orphans, orphans);
        assert!(rec.time_to_repair() > 0, "repair cannot be instantaneous");
    }

    #[test]
    fn queries_during_repair_accumulate_error() {
        let mut sn = paper_setup(1, 37);
        let _ = sn.elect();
        let rep = sn.snapshot().representatives()[0];
        sn.kill_representative(rep);
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Snapshot);
        let sink = sn.net().node_ids().find(|&i| sn.net().is_alive(i)).unwrap();
        let _ = sn.query(&q, sink);
        while sn.repair().in_repair() {
            let _ = sn.maintain();
        }
        assert_eq!(sn.repair().records()[0].queries_during_repair, 1);
    }

    #[test]
    fn try_query_on_dead_network_returns_typed_error() {
        let mut sn = paper_setup(1, 31);
        sn.enable_telemetry(1024);
        for id in 0..100u32 {
            sn.net_mut().kill(NodeId(id));
        }
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular);
        let err = sn.try_query(&q, NodeId(0)).unwrap_err();
        assert_eq!(err, CoreError::NetworkUnavailable { alive: 0 });
        let trace = sn.export_trace_jsonl();
        assert!(
            trace.contains("\"status\":\"error\""),
            "failed query must leave an error span in the trace"
        );
    }

    #[test]
    fn try_query_at_a_dead_sink_reports_survivors() {
        let mut sn = paper_setup(1, 31);
        sn.net_mut().kill(NodeId(0));
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular);
        let err = sn.try_query(&q, NodeId(0)).unwrap_err();
        assert_eq!(err, CoreError::NetworkUnavailable { alive: 99 });
        // A live sink still answers.
        assert!(sn.try_query(&q, NodeId(1)).is_ok());
    }

    #[test]
    fn values_track_the_trace() {
        let sn = paper_setup(1, 23);
        assert_eq!(sn.now(), 99);
        let v = sn.values();
        assert_eq!(v.len(), 100);
        assert_eq!(v[5], sn.value(NodeId(5)));
    }

    #[test]
    fn time_past_the_trace_holds_the_last_value() {
        let mut sn = paper_setup(1, 29);
        sn.set_time(99);
        let at_end = sn.value(NodeId(0));
        sn.set_time(5000);
        assert_eq!(sn.value(NodeId(0)), at_end);
    }

    #[test]
    #[should_panic(expected = "trace covers")]
    fn mismatched_trace_is_rejected() {
        let data = random_walk(&RandomWalkConfig {
            n_nodes: 5,
            ..RandomWalkConfig::paper_defaults(1, 1)
        })
        .unwrap();
        let topo = Topology::random_uniform(10, 1.0, 1).expect("valid deployment");
        let _ = SensorNetwork::new(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            SnapshotConfig::default(),
            data.trace,
        );
    }
}
