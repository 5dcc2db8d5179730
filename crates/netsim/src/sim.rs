//! The round-based network engine.
//!
//! Protocols in the paper are naturally round-structured: every node
//! broadcasts its invitation, then every node broadcasts its candidate
//! list, and so on (Figure 2). [`Network`] therefore exposes a simple
//! contract: nodes enqueue transmissions with [`Network::broadcast`] /
//! [`Network::unicast`]; a call to [`Network::deliver`] moves the round's
//! traffic into per-node inboxes, applying the link model and energy
//! accounting; [`Network::drain`] then hands each node its mail.
//!
//! Physical-layer semantics: every transmission is physically a
//! broadcast. Any *alive* node within transmission range receives it
//! unless the link model drops that particular (sender, receiver) pair.
//! Unicast messages only differ in that the delivery records whether
//! the receiving node was the addressed recipient — higher layers use
//! overheard (snooped) copies to refine their models.

use crate::energy::{Battery, EnergyModel};
use crate::error::NetsimError;
use crate::fault::{FaultKind, FaultPlan, FaultSchedule};
use crate::link::LinkModel;
use crate::message::{Delivery, Destination, Envelope};
use crate::node::{NodeId, NodeState};
use crate::rng::derive_seed;
use crate::rng::DetRng;
use crate::scheduler::{DrainMode, Scheduler, WakeReason};
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::tree::AggregationTree;
use snapshot_telemetry::{Event, Phase, SpanKind, Telemetry};

/// The simulated network: topology + link model + energy + statistics.
///
/// Generic over the application payload type `P`.
#[derive(Debug)]
pub struct Network<P: Clone> {
    topology: Topology,
    link: LinkModel,
    energy: EnergyModel,
    seed: u64,
    rng: DetRng,
    batteries: Vec<Battery>,
    states: Vec<NodeState>,
    stats: NetStats,
    telemetry: Telemetry,
    outbox: Vec<Envelope<P>>,
    inboxes: Vec<Vec<Delivery<P>>>,
    /// Drained-outbox buffer recycled across rounds so [`Network::deliver`]
    /// never re-allocates the envelope queue (DESIGN.md §12).
    scratch: Vec<Envelope<P>>,
    /// [`Network::drain`]'s candidate ids and the mail of the node it
    /// visits, kept across rounds so a warm drain allocates nothing.
    drain_ids: Vec<NodeId>,
    mail: Vec<Delivery<P>>,
    /// Per-node battery drain multiplier (1.0 = nominal), set by
    /// fault injection.
    drain: Vec<f64>,
    /// Compiled fault timeline, applied at each tick boundary.
    faults: Option<FaultSchedule>,
    /// Deterministic event queue + wake-list (DESIGN.md §16): every
    /// event source — message delivery, timers, faults, mobility —
    /// marks the touched node so per-tick consumers visit O(active)
    /// nodes, not O(N).
    sched: Scheduler,
    /// Cached alive-node count, maintained by kill/revive and battery
    /// depletion so [`Network::alive_count`] is O(1).
    alive: usize,
    /// The last BFS aggregation tree built by
    /// [`Network::refresh_bfs_tree`], with the alive count it was
    /// built at (see [`Network::bfs_tree`] for the invalidation rule).
    bfs_tree: Option<(usize, AggregationTree)>,
    round: u64,
}

impl<P: Clone> Clone for Network<P> {
    /// Clones replicate the full network state **except** the loss
    /// RNG, which is deliberately re-seeded from `(seed, round)`
    /// rather than copied. `DetRng` itself is `Clone`, so this is a
    /// contract, not a workaround: two clones taken at the same round
    /// share identical futures *with each other* (cloning is how the
    /// parallel experiment runner fans a configured network out to
    /// repetition cells, and every cell must see the same stream), but
    /// a clone's loss pattern diverges from the **parent's own
    /// continuation** — the parent's RNG keeps the position it had
    /// already advanced to, while the clone restarts from the derived
    /// seed.
    ///
    /// ```
    /// use snapshot_netsim::prelude::*;
    ///
    /// let topo = Topology::new(
    ///     vec![Position::new(0.0, 0.0), Position::new(0.1, 0.0)],
    ///     1.0,
    /// )
    /// .unwrap();
    /// let net: Network<u8> =
    ///     Network::new(topo, LinkModel::iid_loss(0.5), EnergyModel::default(), 7);
    ///
    /// let mut a = net.clone();
    /// let mut b = net.clone();
    /// for _ in 0..20 {
    ///     a.broadcast(NodeId(0), 1, 4, Phase::Test);
    ///     a.deliver();
    ///     b.broadcast(NodeId(0), 1, 4, Phase::Test);
    ///     b.deliver();
    /// }
    /// // Sibling clones replay the same loss stream.
    /// assert_eq!(a.stats().total_received(), b.stats().total_received());
    /// ```
    fn clone(&self) -> Self {
        Network {
            topology: self.topology.clone(),
            link: self.link.clone(),
            energy: self.energy,
            seed: self.seed,
            rng: DetRng::seed_from_u64(derive_seed(self.seed, 0x000C_104E ^ self.round)),
            batteries: self.batteries.clone(),
            states: self.states.clone(),
            stats: self.stats.clone(),
            telemetry: self.telemetry.clone(),
            outbox: self.outbox.clone(),
            inboxes: self.inboxes.clone(),
            scratch: Vec::new(),
            drain_ids: Vec::new(),
            mail: Vec::new(),
            drain: self.drain.clone(),
            faults: self.faults.clone(),
            sched: self.sched.clone(),
            alive: self.alive,
            bfs_tree: self.bfs_tree.clone(),
            round: self.round,
        }
    }
}

impl<P: Clone> Network<P> {
    /// Build a network with infinite batteries (the Section 6.1
    /// sensitivity-analysis configuration).
    pub fn new(topology: Topology, link: LinkModel, energy: EnergyModel, seed: u64) -> Self {
        let n = topology.len();
        Network {
            topology,
            link,
            energy,
            seed,
            rng: DetRng::seed_from_u64(derive_seed(seed, 0x11_4E7)),
            batteries: vec![Battery::infinite(); n],
            states: vec![NodeState::Alive; n],
            stats: NetStats::new(n),
            telemetry: Telemetry::off(),
            outbox: Vec::new(),
            inboxes: vec![Vec::new(); n],
            scratch: Vec::new(),
            drain_ids: Vec::new(),
            mail: Vec::new(),
            drain: vec![1.0; n],
            faults: None,
            sched: Scheduler::new(n),
            alive: n,
            bfs_tree: None,
            round: 0,
        }
    }

    /// Build a network in which every node starts with a finite battery
    /// of `capacity` transmission equivalents (Figure 10 uses 500).
    pub fn with_finite_batteries(
        topology: Topology,
        link: LinkModel,
        energy: EnergyModel,
        capacity: f64,
        seed: u64,
    ) -> Self {
        let mut net = Self::new(topology, link, energy, seed);
        net.batteries = vec![Battery::finite(capacity); net.topology.len()];
        // A zero-capacity battery is dead on arrival: refresh the
        // cached alive count against the replaced batteries.
        net.alive = net.batteries.iter().filter(|b| b.is_alive()).count();
        net
    }

    /// The deployment.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of nodes (alive or dead).
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// True when the network has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topology.node_ids()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable statistics (for resets between measured windows).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// The telemetry hub (off by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replace the telemetry hub, e.g.
    /// `net.set_telemetry(Telemetry::full(100_000))` to start tracing.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// True when a telemetry sink is attached. Instrumented callers
    /// guard event construction behind this.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Record a protocol event, stamped by the caller with
    /// [`Network::round`] as its tick. No-op when telemetry is off.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if self.telemetry.enabled() {
            self.telemetry.record(&event);
        }
    }

    /// Open a hierarchical telemetry span of `kind` at the current
    /// round. Returns the span id for [`Network::close_span`], or 0
    /// when telemetry is off (closing 0 is a no-op, so callers never
    /// branch).
    #[inline]
    pub fn open_span(&mut self, kind: SpanKind) -> u64 {
        self.telemetry.open_span(self.round, kind)
    }

    /// Close span `id` at the current round. No-op for id 0.
    #[inline]
    pub fn close_span(&mut self, id: u64) {
        self.telemetry.close_span(self.round, id);
    }

    /// The energy model in force.
    pub fn energy_model(&self) -> EnergyModel {
        self.energy
    }

    /// Battery of one node.
    pub fn battery(&self, id: NodeId) -> &Battery {
        &self.batteries[id.index()]
    }

    /// True when the node is alive (not failed, battery not depleted).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.states[id.index()].is_alive() && self.batteries[id.index()].is_alive()
    }

    /// Number of currently alive nodes. O(1): the count is maintained
    /// incrementally by kill/revive and battery depletion.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Inject a permanent failure at `id` (used by self-healing tests
    /// and the fault engine). Killing an already-dead node is a no-op:
    /// no state change and no duplicate telemetry event.
    pub fn kill(&mut self, id: NodeId) {
        if self.states[id.index()].is_alive() {
            if self.batteries[id.index()].is_alive() {
                self.alive -= 1;
            }
            self.states[id.index()] = NodeState::Dead;
            self.sched.wake(id, WakeReason::Fault);
            let tick = self.round;
            self.emit(Event::NodeFailed { tick, node: id.0 });
        }
    }

    /// Bring a failed node back (transient-outage recovery). Only a
    /// node that is marked dead but whose battery still holds charge
    /// revives; reviving an alive node — or a battery-depleted corpse —
    /// is a no-op with no telemetry event.
    pub fn revive(&mut self, id: NodeId) {
        if !self.states[id.index()].is_alive() && self.batteries[id.index()].is_alive() {
            self.states[id.index()] = NodeState::Alive;
            self.alive += 1;
            self.bfs_tree = None;
            self.sched.wake(id, WakeReason::Fault);
            let tick = self.round;
            self.emit(Event::NodeRecovered { tick, node: id.0 });
        }
    }

    /// Set the battery drain multiplier for one node (or, with `None`,
    /// every node): subsequent energy draws are scaled by `factor`.
    pub fn set_drain_multiplier(&mut self, id: Option<NodeId>, factor: f64) {
        match id {
            Some(id) => self.drain[id.index()] = factor,
            None => self.drain.fill(factor),
        }
    }

    /// The drain multiplier currently applied to `id`'s energy draws.
    pub fn drain_multiplier(&self, id: NodeId) -> f64 {
        self.drain[id.index()]
    }

    /// Replace the link model mid-run (fault injection).
    pub fn set_link_model(&mut self, link: LinkModel) {
        self.link = link;
    }

    /// The link model in force.
    pub fn link_model(&self) -> &LinkModel {
        &self.link
    }

    /// Attach a fault timeline: due events apply at each subsequent
    /// tick boundary inside [`Network::deliver`]. `random` targets
    /// resolve from a dedicated RNG stream derived from the network
    /// seed, so the timeline replays identically on every run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultSchedule::new(plan, derive_seed(self.seed, 0xFA_017)));
    }

    /// The compiled fault schedule, when one is attached.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// Apply every fault event and outage recovery due at the current
    /// round. Recoveries process first (in node-id order), then due
    /// events in schedule order, so a fault and a recovery landing on
    /// the same tick leave the node dead.
    ///
    /// Allocates (the due lists, the alive scans), so `deliver` calls it
    /// only on a tick where a fault event or a recovery is due.
    fn apply_due_faults(&mut self) {
        let Some(mut sched) = self.faults.take() else {
            return;
        };
        let tick = self.round;
        for node in sched.take_due_recoveries(tick) {
            self.revive(NodeId(node));
        }
        for event in sched.take_due(tick) {
            self.apply_fault(&mut sched, tick, event.kind);
        }
        self.faults = Some(sched);
    }

    /// Apply one fault, emitting `fault_injected` for each node (or
    /// network-wide change) it takes effect on. The match has no
    /// wildcard arm, so a new `FaultKind` fails to compile here until
    /// it is applied and recorded.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn apply_fault(&mut self, sched: &mut FaultSchedule, tick: u64, kind: FaultKind) {
        use snapshot_telemetry::FaultTag;
        match kind {
            FaultKind::Crash { target } => {
                let alive: Vec<NodeId> = self.node_ids().filter(|&id| self.is_alive(id)).collect();
                if let Some(id) = sched.resolve_target(target, &alive) {
                    if id.index() < self.len() && self.is_alive(id) {
                        self.kill(id);
                        sched.cancel_recovery(id.0);
                        self.emit(Event::FaultInjected {
                            tick,
                            fault: FaultTag::Crash,
                            node: id.0,
                        });
                    }
                }
            }
            FaultKind::Outage { target, down_for } => {
                let alive: Vec<NodeId> = self.node_ids().filter(|&id| self.is_alive(id)).collect();
                if let Some(id) = sched.resolve_target(target, &alive) {
                    if id.index() >= self.len() {
                        return;
                    }
                    if self.is_alive(id) {
                        self.kill(id);
                        sched.schedule_recovery(id.0, tick + down_for);
                        self.emit(Event::FaultInjected {
                            tick,
                            fault: FaultTag::Outage,
                            node: id.0,
                        });
                    } else if sched.has_pending_recovery(id.0) {
                        // Overlapping outages extend to the later
                        // recovery; a permanently-dead node stays dead.
                        sched.schedule_recovery(id.0, tick + down_for);
                    }
                }
            }
            FaultKind::Blackout { center, radius } => {
                let in_disc: Vec<NodeId> = self
                    .node_ids()
                    .filter(|&id| self.topology.position(id).distance(&center) <= radius)
                    .collect();
                for id in in_disc {
                    // Blacked-out ground stays dark: a node merely
                    // down from an outage loses its pending recovery
                    // too, even though its own kill is a no-op.
                    sched.cancel_recovery(id.0);
                    if self.is_alive(id) {
                        self.kill(id);
                        self.emit(Event::FaultInjected {
                            tick,
                            fault: FaultTag::Blackout,
                            node: id.0,
                        });
                    }
                }
            }
            FaultKind::Drain { node, factor } => {
                let target = node.map(NodeId);
                if let Some(id) = target {
                    if id.index() >= self.len() {
                        return;
                    }
                }
                self.set_drain_multiplier(target, factor);
                if let Some(id) = target {
                    // A targeted drain changes one node's energy future;
                    // wake it so per-tick consumers re-examine it.
                    self.sched.wake(id, WakeReason::Fault);
                }
                self.emit(Event::FaultInjected {
                    tick,
                    fault: FaultTag::Drain,
                    node: node.unwrap_or(u32::MAX),
                });
            }
            FaultKind::LinkIid { p_loss } => {
                self.set_link_model(LinkModel::iid_loss(p_loss));
                self.emit(Event::FaultInjected {
                    tick,
                    fault: FaultTag::LinkChange,
                    node: u32::MAX,
                });
            }
            FaultKind::LinkBurst { params } => {
                self.set_link_model(LinkModel::gilbert_elliott(self.len(), params));
                self.emit(Event::FaultInjected {
                    tick,
                    fault: FaultTag::LinkChange,
                    node: u32::MAX,
                });
            }
        }
    }

    /// Move a node (mobility): future deliveries use the new
    /// neighborhoods immediately. The move wakes the node so per-tick
    /// consumers re-examine it.
    pub fn move_node(&mut self, id: NodeId, pos: crate::topology::Position) {
        self.topology.set_position(id, pos);
        self.bfs_tree = None;
        self.sched.wake(id, WakeReason::Mobility);
    }

    // ---- Cached aggregation tree -----------------------------------------

    /// Make [`Network::bfs_tree`] return the BFS aggregation tree
    /// rooted at `sink` over the currently alive nodes
    /// ([`AggregationTree::bfs`]), building it only when the cached
    /// one does not match.
    pub fn refresh_bfs_tree(&mut self, sink: NodeId) {
        if self.bfs_tree(sink).is_none() {
            let tree = AggregationTree::bfs(&self.topology, sink, |id| self.is_alive(id));
            self.bfs_tree = Some((self.alive, tree));
        }
    }

    /// The cached BFS aggregation tree rooted at `sink`, or `None`
    /// when there is none or it may be stale.
    ///
    /// The tree is a function of the topology and of which nodes are
    /// alive, and it is keyed by `(sink, alive count)`. Every death —
    /// [`Network::kill`] or a battery running flat — lowers the alive
    /// count, so the key stops matching. Only [`Network::revive`]
    /// raises the count again, and only [`Network::move_node`]
    /// changes the topology; both drop the cache.
    pub fn bfs_tree(&self, sink: NodeId) -> Option<&AggregationTree> {
        match &self.bfs_tree {
            Some((alive, tree)) if *alive == self.alive && tree.sink() == sink => Some(tree),
            _ => None,
        }
    }

    // ---- Scheduler & wake-list -------------------------------------------

    /// The event scheduler and wake-list (read-only).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Register a timer: `node` is woken at the first
    /// [`Network::deliver`] whose tick is ≥ `at_tick` (priority orders
    /// same-tick timers, 0 first). Timer expiry is the fourth wake
    /// source next to messages, faults and mobility.
    pub fn schedule_wake(&mut self, at_tick: u64, priority: u8, node: NodeId) {
        self.sched.schedule(at_tick, priority, node);
    }

    /// The drain-candidate policy in force (see [`DrainMode`]).
    pub fn drain_mode(&self) -> DrainMode {
        self.sched.drain_mode()
    }

    /// Switch between the O(active) wake-list drain and the all-nodes
    /// reference scan. Both produce byte-identical artifacts (the
    /// equivalence suite in `crates/bench/tests` gates this).
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.sched.set_drain_mode(mode);
    }

    /// Hand each of this tick's drain candidates its mail: `visit`
    /// gets the network, the node and a draining iterator over its
    /// inbox. This is the one way to read what [`Network::deliver`]
    /// brought.
    ///
    /// * Candidates come in ascending node-id order: the woken nodes
    ///   under [`DrainMode::WakeList`], every node under
    ///   [`DrainMode::AllScan`]. The set is fixed when the drain
    ///   starts.
    /// * A dead candidate's inbox is discarded, and its mark cleared,
    ///   before the first visit. A candidate that an earlier visit
    ///   kills is still visited.
    /// * Just before its visit, each candidate is unmarked and its
    ///   inbox is swapped into the network's mail buffer. Mail the
    ///   visitor leaves unread is discarded, and mail it sends waits
    ///   for the next `deliver`.
    ///
    /// The candidate ids and the mail live in two buffers the network
    /// keeps, and the mail buffer trades capacity with the inboxes, so
    /// a warm drain allocates nothing (DESIGN.md §15).
    pub fn drain(
        &mut self,
        mut visit: impl FnMut(&mut Network<P>, NodeId, std::vec::Drain<'_, Delivery<P>>),
    ) {
        let mut ids = std::mem::take(&mut self.drain_ids);
        let mut mail = std::mem::take(&mut self.mail);
        self.sched.drain_candidates_into(&mut ids);
        ids.retain(|&id| {
            let alive = self.is_alive(id);
            if !alive {
                self.sched.unwake(id);
                self.inboxes[id.index()].clear();
            }
            alive
        });
        for &id in &ids {
            self.sched.unwake(id);
            // `mail` is empty here: each visit's `Drain` empties it.
            std::mem::swap(&mut self.inboxes[id.index()], &mut mail);
            visit(self, id, mail.drain(..));
        }
        self.drain_ids = ids;
        self.mail = mail;
    }

    /// Charge `id` for one cache-manager update (the paper's 0.1-tx
    /// processing cost). Returns `false` if the node was already dead.
    pub fn charge_cache_update(&mut self, id: NodeId) -> bool {
        if !self.states[id.index()].is_alive() {
            return false;
        }
        let cost = self.energy.cache_update_cost;
        self.draw_energy(id, cost, Phase::Cache)
    }

    /// Charge `id` an arbitrary amount of energy attributed to `phase`
    /// (failure-injection and ablation experiments).
    pub fn charge(&mut self, id: NodeId, amount: f64, phase: Phase) -> bool {
        if !self.states[id.index()].is_alive() {
            return false;
        }
        self.draw_energy(id, amount, phase)
    }

    /// Charge `id` one transmission in `phase` that never enters the
    /// outbox (a query's partial aggregate flowing up the tree): the tx
    /// energy is drawn, and the send is counted even when the draw
    /// fails.
    pub fn charge_send(&mut self, id: NodeId, phase: Phase) {
        let tx = self.energy.tx_cost;
        self.charge(id, tx, phase);
        self.stats.record_send(id, phase);
    }

    /// Draw from `id`'s battery, attributing the energy to `phase` in
    /// the telemetry stream and recording a `NodeFailed` event when
    /// the draw depletes the battery.
    fn draw_energy(&mut self, id: NodeId, amount: f64, phase: Phase) -> bool {
        draw_energy_raw(
            &mut self.batteries,
            &mut self.telemetry,
            &self.drain,
            &self.states,
            &mut self.alive,
            self.round,
            id,
            amount,
            phase,
        )
    }

    /// Enqueue a broadcast from `src`. Silently ignored when `src` is
    /// dead (a dead radio transmits nothing). Charges tx energy.
    pub fn broadcast(&mut self, src: NodeId, payload: P, bytes: u32, phase: Phase) {
        self.send(src, Destination::Broadcast, payload, bytes, phase);
    }

    /// Enqueue a unicast from `src` to `dst`. Physically still a
    /// broadcast; see the module docs.
    pub fn unicast(&mut self, src: NodeId, dst: NodeId, payload: P, bytes: u32, phase: Phase) {
        self.send(src, Destination::Unicast(dst), payload, bytes, phase);
    }

    fn send(&mut self, src: NodeId, dst: Destination, payload: P, bytes: u32, phase: Phase) {
        if !self.is_alive(src) {
            return;
        }
        let tx = self.energy.tx_cost;
        if !self.draw_energy(src, tx, phase) {
            return;
        }
        self.stats.record_send(src, phase);
        if self.telemetry.enabled() {
            let tick = self.round;
            self.telemetry.record(&Event::MsgSent {
                tick,
                node: src.0,
                phase,
                bytes,
            });
        }
        self.outbox.push(Envelope {
            src,
            dst,
            payload,
            bytes,
            phase,
            sent_tick: self.round,
        });
    }

    /// Deliver the round's traffic: for every queued envelope, every
    /// alive node within range of the sender receives an independent
    /// copy subject to the link model. Returns the number of
    /// successful deliveries.
    ///
    /// Allocation contract (DESIGN.md §12): with telemetry off, this
    /// performs **zero per-envelope heap allocations** in steady
    /// state. The envelope queue drains through a recycled scratch
    /// buffer, receivers iterate the precomputed neighbor slice in
    /// place, and an envelope reaching `R` receivers costs `R − 1`
    /// payload clones — the last receiver takes the payload by move.
    pub fn deliver(&mut self) -> usize {
        self.round += 1;
        let wakes_before = self.sched.total_wakes();
        // Tick boundary: apply scheduled faults before any of this
        // round's traffic moves, so a node crashed at tick `t` misses
        // round-`t` receptions. `next_due_tick` makes the quiescent
        // skip cheap — a walk of the r pending outage recoveries, O(1)
        // with none, not of the schedule — and an actually-due
        // application is behavior-identical to the old unconditional
        // call (a no-due `apply_due_faults` was already a pure no-op).
        if let Some(f) = &self.faults {
            if f.next_due_tick().is_some_and(|t| t <= self.round) {
                self.apply_due_faults();
            }
        }
        // Fire due timers before the round's traffic: a timer set for
        // tick `t` wakes its node in time for the tick-`t` drain. The
        // scheduler span opens only when something is actually due, so
        // timer-free workloads trace byte-identically to before.
        if self.sched.has_due(self.round) {
            let tspan = self.telemetry.open_span(self.round, SpanKind::Scheduler);
            self.sched.fire_due(self.round);
            self.telemetry.close_span(self.round, tspan);
        }
        let span = self.telemetry.open_span(self.round, SpanKind::Deliver);
        // Swap the queued envelopes into the recycled scratch buffer:
        // draining it leaves its capacity for the next round, and the
        // outbox keeps the capacity it grew while enqueueing.
        let mut envelopes = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut envelopes, &mut self.outbox);
        let mut delivered = 0;

        // Split `self` into disjoint field borrows so the neighbor
        // slice can be iterated directly while inboxes, batteries and
        // stats are mutated — no per-envelope receiver copy.
        let Network {
            topology,
            link,
            energy,
            rng,
            batteries,
            states,
            stats,
            telemetry,
            inboxes,
            drain,
            round,
            sched,
            alive,
            ..
        } = self;
        let round = *round;
        let range = topology.range();
        let rx_cost = energy.rx_cost;

        for env in envelopes.drain(..) {
            // The previous successful receiver gets a clone when the
            // next success arrives; the final one takes the payload
            // by move (a lone receiver costs no clone at all).
            let mut last_hit: Option<NodeId> = None;
            for &dst in topology.neighbors(env.src) {
                let di = dst.index();
                if !(states[di].is_alive() && batteries[di].is_alive()) {
                    continue;
                }
                let dist_frac = topology.distance(env.src, dst) / range;
                let (ok, flip) = link.delivered_tracked(rng, env.src, dst, dist_frac);
                if let Some(bad) = flip {
                    if telemetry.enabled() {
                        telemetry.record(&Event::LinkStateFlipped {
                            tick: round,
                            src: env.src.0,
                            dst: dst.0,
                            bad,
                        });
                    }
                }
                if ok {
                    if rx_cost > 0.0 {
                        draw_energy_raw(
                            batteries, telemetry, drain, states, alive, round, dst, rx_cost,
                            env.phase,
                        );
                    }
                    if let Some(reg) = telemetry.registry_mut() {
                        reg.observe_hop_latency(round.saturating_sub(env.sent_tick));
                    }
                    stats.record_receive(dst);
                    sched.wake(dst, WakeReason::Message);
                    if let Some(prev) = last_hit.replace(dst) {
                        // The inbox keeps the capacity `drain`
                        // recycles, so a warm push allocates nothing.
                        inboxes[prev.index()].push(Delivery {
                            from: env.src,
                            addressed: env.dst.is_addressed_to(prev),
                            // Core's list payloads are `Arc`-shared, so
                            // this clone is a refcount bump
                            // (`list_payload_alloc.rs` counts it).
                            payload: env.payload.clone(),
                        });
                    }
                    delivered += 1;
                } else {
                    stats.record_loss(dst, env.phase);
                    if telemetry.enabled() {
                        telemetry.record(&Event::MsgDropped {
                            tick: round,
                            src: env.src.0,
                            dst: dst.0,
                            phase: env.phase,
                        });
                    }
                }
            }
            if let Some(last) = last_hit {
                inboxes[last.index()].push(Delivery {
                    from: env.src,
                    addressed: env.dst.is_addressed_to(last),
                    payload: env.payload,
                });
            }
        }
        telemetry.close_span(round, span);
        self.scratch = envelopes;
        self.stats
            .record_tick(self.sched.total_wakes() - wakes_before);
        delivered
    }

    /// Number of pending (sent, undelivered) messages.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }

    /// Number of delivery rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Validate that a node id belongs to this network.
    pub fn check_node(&self, id: NodeId) -> Result<(), NetsimError> {
        if id.index() < self.len() {
            Ok(())
        } else {
            Err(NetsimError::UnknownNode(id))
        }
    }
}

/// Field-level body of [`Network::draw_energy`], callable while the
/// rest of the struct is split into disjoint borrows (the delivery
/// loop iterates the topology's neighbor slices in place). `drain`
/// scales the nominal amount by the node's fault-injected battery
/// drain multiplier; the telemetry stream records the scaled draw.
/// A draw that depletes the battery of a state-alive node decrements
/// the cached `alive` count (the O(1) [`Network::alive_count`]).
#[allow(clippy::too_many_arguments)]
fn draw_energy_raw(
    batteries: &mut [Battery],
    telemetry: &mut Telemetry,
    drain: &[f64],
    states: &[NodeState],
    alive: &mut usize,
    round: u64,
    id: NodeId,
    amount: f64,
    phase: Phase,
) -> bool {
    let amount = amount * drain[id.index()];
    let was_alive = batteries[id.index()].is_alive();
    if !batteries[id.index()].draw(amount) {
        return false;
    }
    if was_alive && !batteries[id.index()].is_alive() && states[id.index()].is_alive() {
        *alive -= 1;
    }
    if telemetry.enabled() {
        telemetry.record(&Event::EnergyDraw {
            tick: round,
            node: id.0,
            phase,
            amount,
        });
        if !batteries[id.index()].is_alive() {
            telemetry.record(&Event::NodeFailed {
                tick: round,
                node: id.0,
            });
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Position;

    fn line_topology(n: usize, spacing: f64, range: f64) -> Topology {
        let positions = (0..n)
            .map(|i| Position::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::new(positions, range).unwrap()
    }

    /// A line of `n` nodes over perfect links with infinite batteries.
    fn perfect_line<P: Clone>(n: usize, spacing: f64, range: f64) -> Network<P> {
        Network::new(
            line_topology(n, spacing, range),
            LinkModel::Perfect,
            EnergyModel::default(),
            1,
        )
    }

    /// One node's mail, read outside a drain: the inbox is taken and
    /// the node unmarked.
    fn take_inbox<P: Clone>(net: &mut Network<P>, id: NodeId) -> Vec<Delivery<P>> {
        net.sched.unwake(id);
        std::mem::take(&mut net.inboxes[id.index()])
    }

    /// The nodes a drain visits, in visit order, their mail unread.
    fn visited<P: Clone>(net: &mut Network<P>) -> Vec<NodeId> {
        let mut ids = Vec::new();
        net.drain(|_, id, _| ids.push(id));
        ids
    }

    #[test]
    fn broadcast_reaches_only_in_range_nodes() {
        // 0 -- 1 -- 2 -- 3 spaced 0.3 apart, range 0.35: only adjacent
        // nodes hear each other.
        let mut net: Network<u8> = perfect_line(4, 0.3, 0.35);
        net.broadcast(NodeId(1), 7, 4, Phase::Test);
        net.deliver();
        assert_eq!(take_inbox(&mut net, NodeId(0)).len(), 1);
        assert!(take_inbox(&mut net, NodeId(1)).is_empty());
        assert_eq!(take_inbox(&mut net, NodeId(2)).len(), 1);
        assert!(take_inbox(&mut net, NodeId(3)).is_empty());
    }

    #[test]
    fn unicast_is_physically_overheard() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.unicast(NodeId(0), NodeId(2), 9, 4, Phase::Test);
        net.deliver();
        let at1 = take_inbox(&mut net, NodeId(1));
        let at2 = take_inbox(&mut net, NodeId(2));
        assert_eq!(at1.len(), 1);
        assert!(!at1[0].addressed, "node 1 merely snooped the message");
        assert_eq!(at2.len(), 1);
        assert!(at2[0].addressed);
    }

    #[test]
    fn dead_nodes_neither_send_nor_receive() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.kill(NodeId(1));
        net.broadcast(NodeId(1), 1, 4, Phase::Test); // ignored
        net.broadcast(NodeId(0), 2, 4, Phase::Test);
        net.deliver();
        assert!(take_inbox(&mut net, NodeId(1)).is_empty());
        assert_eq!(take_inbox(&mut net, NodeId(2)).len(), 1);
        assert_eq!(net.stats().total_sent(), 1);
    }

    #[test]
    fn battery_depletion_silences_a_node() {
        let topo = line_topology(2, 0.1, 1.0);
        let mut net: Network<u8> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            2.0,
            1,
        );
        // Two sends allowed, the third is dropped.
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        net.deliver();
        net.broadcast(NodeId(0), 2, 4, Phase::Test);
        net.deliver();
        assert!(!net.is_alive(NodeId(0)));
        net.broadcast(NodeId(0), 3, 4, Phase::Test);
        net.deliver();
        assert_eq!(net.stats().sent_by(NodeId(0)), 2);
    }

    #[test]
    fn cache_update_cost_drains_a_tenth() {
        let topo = line_topology(1, 0.1, 1.0);
        let mut net: Network<u8> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            1.0,
            1,
        );
        for _ in 0..10 {
            assert!(net.charge_cache_update(NodeId(0)));
        }
        // Ten updates at 0.1 each drain the whole 1.0 battery, modulo
        // floating-point residue smaller than one further update.
        assert!(net.battery(NodeId(0)).remaining() < 1e-9);
        net.charge_cache_update(NodeId(0));
        assert!(!net.is_alive(NodeId(0)));
    }

    #[test]
    fn total_loss_destroys_all_deliveries() {
        let topo = line_topology(5, 0.1, 1.0);
        let mut net: Network<u8> =
            Network::new(topo, LinkModel::iid_loss(1.0), EnergyModel::default(), 1);
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        let delivered = net.deliver();
        assert_eq!(delivered, 0);
        assert_eq!(net.stats().total_lost(), 4);
    }

    #[test]
    fn loss_rate_is_statistically_respected() {
        let topo = line_topology(2, 0.1, 1.0);
        let mut net: Network<u8> =
            Network::new(topo, LinkModel::iid_loss(0.4), EnergyModel::default(), 42);
        for _ in 0..5_000 {
            net.broadcast(NodeId(0), 1, 4, Phase::Test);
            net.deliver();
            net.drain(|_, _, _| {});
        }
        let rate = net.stats().total_received() as f64 / 5_000.0;
        assert!(
            (rate - 0.6).abs() < 0.03,
            "delivery rate {rate}, expected ~0.6"
        );
    }

    #[test]
    fn deliveries_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let topo = line_topology(10, 0.05, 1.0);
            let mut net: Network<u32> =
                Network::new(topo, LinkModel::iid_loss(0.5), EnergyModel::default(), seed);
            let mut log = Vec::new();
            for t in 0..50u32 {
                net.broadcast(NodeId(t % 10), t, 4, Phase::Test);
                net.deliver();
                net.drain(|_, id, mail| {
                    for d in mail {
                        log.push((t, id.0, d.from.0, d.payload));
                    }
                });
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn broadcast_payload_clones_cost_receivers_minus_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CLONES: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug)]
        struct Counted(u8);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::SeqCst);
                Counted(self.0)
            }
        }

        // 5 nodes all in range: a broadcast from node 0 reaches 4
        // receivers; the last one must take the payload by move.
        let mut net: Network<Counted> = perfect_line(5, 0.1, 1.0);
        net.broadcast(NodeId(0), Counted(9), 4, Phase::Test);
        CLONES.store(0, Ordering::SeqCst);
        let delivered = net.deliver();
        assert_eq!(delivered, 4);
        assert_eq!(
            CLONES.load(Ordering::SeqCst),
            3,
            "4 receivers must cost exactly 3 payload clones"
        );
        for i in 1..5u32 {
            assert_eq!(take_inbox(&mut net, NodeId(i)).len(), 1);
        }
    }

    #[test]
    fn single_receiver_pays_no_clone() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CLONES: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug)]
        struct Counted;
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }

        let mut net: Network<Counted> = perfect_line(2, 0.1, 1.0);
        net.unicast(NodeId(0), NodeId(1), Counted, 4, Phase::Test);
        CLONES.store(0, Ordering::SeqCst);
        assert_eq!(net.deliver(), 1);
        assert_eq!(CLONES.load(Ordering::SeqCst), 0);
    }

    /// A drain hands each node what its inbox holds, as reading the
    /// inboxes one by one does, and keeps its buffers for the next
    /// round.
    #[test]
    fn drain_hands_each_node_its_inbox_and_keeps_its_buffers() {
        let run = |drain: bool| {
            let topo = line_topology(6, 0.05, 1.0);
            let mut net: Network<u32> =
                Network::new(topo, LinkModel::iid_loss(0.4), EnergyModel::default(), 3);
            let mut log = Vec::new();
            for t in 0..30u32 {
                net.broadcast(NodeId(t % 6), t, 4, Phase::Test);
                net.deliver();
                if drain {
                    net.drain(|_, id, mail| {
                        for d in mail {
                            log.push((t, id.0, d.from.0, d.addressed, d.payload));
                        }
                    });
                    assert!(net.drain_ids.capacity() > 0 && net.mail.capacity() > 0);
                } else {
                    for id in 0..6u32 {
                        for d in take_inbox(&mut net, NodeId(id)) {
                            log.push((t, id, d.from.0, d.addressed, d.payload));
                        }
                    }
                }
            }
            log
        };
        assert_eq!(run(true), run(false));
    }

    /// Mail a visitor leaves unread is discarded with the visit.
    #[test]
    fn mail_left_unread_is_discarded() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        net.deliver();
        let mut read = Vec::new();
        net.drain(|_, id, mail| {
            if id == NodeId(2) {
                read.extend(mail.map(|d| d.payload));
            }
        });
        assert_eq!(read, vec![1]);
        assert!(take_inbox(&mut net, NodeId(1)).is_empty());
        assert!(take_inbox(&mut net, NodeId(2)).is_empty());
        assert!(net.mail.is_empty() && net.mail.capacity() > 0);
    }

    /// Candidates come in ascending id order whatever order they were
    /// woken in: the woken nodes under the wake list, every node under
    /// the all-nodes scan.
    #[test]
    fn drain_visits_candidates_in_ascending_order_under_both_modes() {
        let mut net: Network<u8> = perfect_line(6, 0.1, 1.0);
        let wake = |net: &mut Network<u8>| {
            for id in [4, 1, 5, 3] {
                let pos = net.topology().position(NodeId(id));
                net.move_node(NodeId(id), pos);
            }
        };
        wake(&mut net);
        assert_eq!(
            visited(&mut net),
            vec![NodeId(1), NodeId(3), NodeId(4), NodeId(5)]
        );
        net.set_drain_mode(DrainMode::AllScan);
        wake(&mut net);
        assert_eq!(visited(&mut net), net.node_ids().collect::<Vec<_>>());
        assert_eq!(net.scheduler().woken_len(), 0);
    }

    /// A dead candidate's inbox is discarded, and its mark cleared,
    /// before the first visit, and the dead node is not visited.
    #[test]
    fn drain_discards_dead_candidates_before_the_first_visit() {
        let mut net: Network<u8> = perfect_line(4, 0.1, 1.0);
        net.broadcast(NodeId(3), 1, 4, Phase::Test);
        net.deliver();
        net.kill(NodeId(2));
        let mut ids = Vec::new();
        net.drain(|net, id, _| {
            if ids.is_empty() {
                assert!(!net.scheduler().is_woken(NodeId(2)));
                assert!(net.inboxes[2].is_empty());
            }
            ids.push(id);
        });
        assert_eq!(ids, vec![NodeId(0), NodeId(1)]);
    }

    /// The candidate set is fixed when the drain starts: a candidate
    /// that an earlier visit kills is still visited, with its mail.
    #[test]
    fn a_candidate_killed_mid_drain_is_still_visited() {
        let mut net: Network<u8> = perfect_line(4, 0.1, 1.0);
        net.broadcast(NodeId(3), 1, 4, Phase::Test);
        net.deliver();
        let mut seen = Vec::new();
        net.drain(|net, id, mail| {
            if id == NodeId(0) {
                net.kill(NodeId(1));
            }
            seen.push((id, mail.count(), net.is_alive(id)));
        });
        assert_eq!(
            seen,
            vec![
                (NodeId(0), 1, true),
                (NodeId(1), 1, false),
                (NodeId(2), 1, true)
            ]
        );
    }

    /// Mail a visitor sends waits for the next `deliver`, and a node a
    /// visitor wakes waits for the next drain.
    #[test]
    fn mail_sent_during_a_visit_waits_for_the_next_deliver() {
        // 0 -- 1 -- 2 -- 3, adjacent nodes only.
        let mut net: Network<u8> = perfect_line(4, 0.3, 0.35);
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        net.deliver();
        let mut ids = Vec::new();
        net.drain(|net, id, _| {
            net.broadcast(id, 2, 4, Phase::Test);
            let pos = net.topology().position(NodeId(3));
            net.move_node(NodeId(3), pos);
            ids.push(id);
        });
        assert_eq!(ids, vec![NodeId(1)]);
        assert_eq!(net.pending(), 1);
        assert_eq!(visited(&mut net), vec![NodeId(3)]);
        net.deliver();
        let mut heard = Vec::new();
        net.drain(|_, id, mail| heard.extend(mail.map(|d| (id, d.from, d.payload))));
        assert_eq!(
            heard,
            vec![(NodeId(0), NodeId(1), 2), (NodeId(2), NodeId(1), 2)]
        );
    }

    #[test]
    fn alive_count_tracks_kills() {
        let mut net: Network<u8> = perfect_line(4, 0.1, 1.0);
        assert_eq!(net.alive_count(), 4);
        net.kill(NodeId(2));
        assert_eq!(net.alive_count(), 3);
    }

    #[test]
    fn check_node_rejects_out_of_range_ids() {
        let net: Network<u8> = perfect_line(2, 0.1, 1.0);
        assert!(net.check_node(NodeId(1)).is_ok());
        assert!(matches!(
            net.check_node(NodeId(2)),
            Err(NetsimError::UnknownNode(_))
        ));
    }

    #[test]
    fn telemetry_records_sends_drops_and_energy() {
        let topo = line_topology(3, 0.1, 1.0);
        let mut net: Network<u8> =
            Network::new(topo, LinkModel::iid_loss(1.0), EnergyModel::default(), 1);
        net.set_telemetry(Telemetry::full(1024));
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        net.deliver();
        net.kill(NodeId(2));

        let events = net.telemetry().ring().expect("ring attached").events();
        let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            vec![
                "energy",      // tx draw for the broadcast
                "msg_sent",    // the broadcast itself
                "span_open",   // the deliver round's span
                "msg_dropped", // lost at node 1 (total loss)
                "msg_dropped", // lost at node 2
                "span_close",  // deliver span closes
                "node_failed", // the kill
            ]
        );
        let m = net.telemetry().registry().expect("registry attached");
        assert!((m.energy_in(0, Phase::Test) - 1.0).abs() < 1e-12);
        assert_eq!(m.span_totals(SpanKind::Deliver).count, 1);
    }

    #[test]
    fn identical_seeds_produce_byte_identical_traces() {
        let run = |seed: u64| {
            let topo = line_topology(8, 0.05, 0.2);
            let mut net: Network<u32> =
                Network::new(topo, LinkModel::iid_loss(0.3), EnergyModel::default(), seed);
            net.set_telemetry(Telemetry::with_ring(100_000));
            for t in 0..40u32 {
                net.broadcast(NodeId(t % 8), t, 4, Phase::Data);
                net.deliver();
                net.drain(|_, _, _| {});
            }
            net.telemetry().export_jsonl().expect("ring attached")
        };
        assert_eq!(run(11), run(11), "same seed, byte-identical JSONL");
        assert_ne!(run(11), run(12), "different seed, different trace");
    }

    #[test]
    fn clones_share_reseeded_loss_stream() {
        // The documented Clone contract: sibling clones taken at the
        // same round replay identical loss streams, but each diverges
        // from the parent's own continuation.
        let topo = line_topology(2, 0.1, 1.0);
        let mut parent: Network<u8> =
            Network::new(topo, LinkModel::iid_loss(0.5), EnergyModel::default(), 9);
        for _ in 0..10 {
            parent.broadcast(NodeId(0), 1, 4, Phase::Test);
            parent.deliver();
        }
        let drive = |net: &mut Network<u8>| {
            let before = net.stats().total_received();
            for _ in 0..50 {
                net.broadcast(NodeId(0), 1, 4, Phase::Test);
                net.deliver();
                net.drain(|_, _, _| {});
            }
            net.stats().total_received() - before
        };
        let mut a = parent.clone();
        let mut b = parent.clone();
        assert_eq!(drive(&mut a), drive(&mut b), "siblings share the stream");
    }

    #[test]
    fn revive_restores_only_killed_nodes() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.set_telemetry(Telemetry::with_ring(64));
        net.kill(NodeId(1));
        assert!(!net.is_alive(NodeId(1)));
        net.revive(NodeId(1));
        assert!(net.is_alive(NodeId(1)));
        // Reviving an alive node is a no-op with no event.
        net.revive(NodeId(2));
        let events = net.telemetry().ring().expect("ring").events();
        let recoveries = events
            .iter()
            .filter(|e| matches!(e, Event::NodeRecovered { .. }))
            .count();
        assert_eq!(recoveries, 1);
    }

    #[test]
    fn revive_cannot_raise_a_depleted_battery() {
        let topo = line_topology(2, 0.1, 1.0);
        let mut net: Network<u8> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            1.0,
            1,
        );
        net.broadcast(NodeId(0), 1, 4, Phase::Test); // drains to zero
        assert!(!net.is_alive(NodeId(0)));
        net.revive(NodeId(0));
        assert!(!net.is_alive(NodeId(0)), "a drained battery stays dead");
    }

    #[test]
    fn drain_multiplier_scales_energy_draws() {
        let topo = line_topology(2, 0.1, 1.0);
        let mut net: Network<u8> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            10.0,
            1,
        );
        net.set_drain_multiplier(Some(NodeId(0)), 3.0);
        net.broadcast(NodeId(0), 1, 4, Phase::Test); // 1 tx * 3.0
        assert!((net.battery(NodeId(0)).remaining() - 7.0).abs() < 1e-12);
        assert_eq!(net.drain_multiplier(NodeId(0)), 3.0);
        assert_eq!(net.drain_multiplier(NodeId(1)), 1.0);
    }

    #[test]
    fn fault_plan_crash_applies_at_tick_boundary() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.set_telemetry(Telemetry::with_ring(256));
        net.set_fault_plan(FaultPlan::parse("2 crash 1\n").expect("parses"));
        net.deliver(); // round 1: nothing due
        assert!(net.is_alive(NodeId(1)));
        // Round 2: the crash applies before traffic moves, so node 1
        // misses this round's broadcast.
        net.broadcast(NodeId(0), 7, 4, Phase::Test);
        net.deliver();
        assert!(!net.is_alive(NodeId(1)));
        assert!(take_inbox(&mut net, NodeId(1)).is_empty());
        assert_eq!(take_inbox(&mut net, NodeId(2)).len(), 1);
        let events = net.telemetry().ring().expect("ring").events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::FaultInjected { node: 1, .. })));
    }

    #[test]
    fn fault_plan_outage_recovers_on_schedule() {
        let mut net: Network<u8> = perfect_line(2, 0.1, 1.0);
        net.set_telemetry(Telemetry::with_ring(256));
        net.set_fault_plan(FaultPlan::parse("1 outage 1 for 3\n").expect("parses"));
        net.deliver(); // round 1: outage applies
        assert!(!net.is_alive(NodeId(1)));
        net.deliver(); // round 2
        net.deliver(); // round 3
        assert!(!net.is_alive(NodeId(1)));
        net.deliver(); // round 4 = 1 + 3: recovery
        assert!(net.is_alive(NodeId(1)));
        let events = net.telemetry().ring().expect("ring").events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::NodeRecovered { node: 1, tick: 4 })));
        assert!(net.fault_schedule().expect("attached").exhausted());
    }

    #[test]
    fn fault_plan_link_change_swaps_models() {
        let mut net: Network<u8> = perfect_line(2, 0.1, 1.0);
        net.set_fault_plan(FaultPlan::parse("1 link iid 1.0\n").expect("parses"));
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        net.deliver();
        // The swap happened before this round's traffic moved.
        assert!(take_inbox(&mut net, NodeId(1)).is_empty());
        assert!(matches!(net.link_model(), LinkModel::Iid { .. }));
    }

    #[test]
    fn fault_timeline_is_deterministic_in_seed() {
        let run = |seed: u64| {
            let topo = line_topology(8, 0.05, 1.0);
            let mut net: Network<u32> =
                Network::new(topo, LinkModel::iid_loss(0.2), EnergyModel::default(), seed);
            net.set_telemetry(Telemetry::with_ring(1 << 14));
            net.set_fault_plan(
                FaultPlan::parse(
                    "3 outage random for 5\n6 crash random\n10 link burst 0.1 0.3 0.0 0.9\n",
                )
                .expect("parses"),
            );
            for t in 0..30u32 {
                net.broadcast(NodeId(t % 8), t, 4, Phase::Data);
                net.deliver();
                net.drain(|_, _, _| {});
            }
            net.telemetry().export_jsonl().expect("ring attached")
        };
        assert_eq!(run(4), run(4), "same seed, byte-identical trace");
        assert_ne!(run(4), run(5), "random targets follow the seed");
    }

    #[test]
    fn battery_depletion_emits_node_failed() {
        let topo = line_topology(2, 0.1, 1.0);
        let mut net: Network<u8> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            1.0,
            1,
        );
        net.set_telemetry(Telemetry::with_ring(64));
        net.broadcast(NodeId(0), 1, 4, Phase::Test); // drains the battery
        let events = net.telemetry().ring().expect("ring attached").events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::NodeFailed { node: 0, .. })),
            "draining the last charge records a failure"
        );
    }

    /// The cached O(1) alive count must track the full scan through
    /// kills, revives, double-kills, and battery depletion.
    #[test]
    fn cached_alive_count_matches_scan() {
        let scan = |net: &Network<u8>| net.node_ids().filter(|&id| net.is_alive(id)).count();
        let topo = line_topology(6, 0.1, 1.0);
        let mut net: Network<u8> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            2.0,
            1,
        );
        assert_eq!(net.alive_count(), 6);
        assert_eq!(net.alive_count(), scan(&net));

        net.kill(NodeId(2));
        net.kill(NodeId(2)); // double-kill is a no-op
        assert_eq!(net.alive_count(), 5);
        assert_eq!(net.alive_count(), scan(&net));

        net.revive(NodeId(2));
        net.revive(NodeId(2)); // double-revive is a no-op
        assert_eq!(net.alive_count(), 6);
        assert_eq!(net.alive_count(), scan(&net));

        // Deplete node 0's two-charge battery: alive drops without an
        // explicit kill.
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        net.broadcast(NodeId(0), 1, 4, Phase::Test);
        assert_eq!(net.alive_count(), 5);
        assert_eq!(net.alive_count(), scan(&net));

        // Killing the battery-dead node is a no-op on the count; so is
        // trying to revive the corpse.
        net.kill(NodeId(0));
        net.revive(NodeId(0));
        assert_eq!(net.alive_count(), 5);
        assert_eq!(net.alive_count(), scan(&net));
    }

    /// The cached tree survives traffic that changes nothing and goes
    /// stale on every death, revival and move — also when a revival
    /// restores the alive count a death lowered.
    #[test]
    fn cached_bfs_tree_tracks_liveness_and_topology() {
        // 0 -- 1 -- 2 -- 3, adjacent nodes only; node 3 holds one charge.
        let mut net: Network<u8> = perfect_line(4, 0.1, 0.15);
        net.batteries[3] = Battery::finite(1.0);
        let cached = |net: &mut Network<u8>| {
            net.refresh_bfs_tree(NodeId(0));
            net.bfs_tree(NodeId(0)).map(AggregationTree::len)
        };

        assert_eq!(cached(&mut net), Some(4));
        assert!(net.bfs_tree(NodeId(1)).is_none(), "keyed by sink");
        net.broadcast(NodeId(1), 1, 4, Phase::Test);
        net.deliver();
        assert!(net.bfs_tree(NodeId(0)).is_some(), "traffic keeps the tree");

        net.kill(NodeId(2));
        assert!(net.bfs_tree(NodeId(0)).is_none(), "kill");
        assert_eq!(cached(&mut net), Some(2));
        net.charge(NodeId(3), 1.0, Phase::Test);
        assert!(net.bfs_tree(NodeId(0)).is_none(), "battery death");
        net.revive(NodeId(2));
        assert_eq!(net.alive_count(), 3, "the count the tree was built at");
        assert!(net.bfs_tree(NodeId(0)).is_none(), "revive");
        assert_eq!(cached(&mut net), Some(3));
        net.move_node(NodeId(1), Position::new(0.9, 0.9));
        assert!(net.bfs_tree(NodeId(0)).is_none(), "move");
        assert_eq!(cached(&mut net), Some(1), "the move cut the sink off");
    }

    /// Delivery marks exactly the receiving nodes; draining unmarks.
    #[test]
    fn deliver_wakes_receivers_and_drains_unwake() {
        let mut net: Network<u8> = perfect_line(4, 0.3, 0.35);
        net.broadcast(NodeId(1), 7, 4, Phase::Test);
        net.deliver();
        assert_eq!(net.scheduler().wakes_by(WakeReason::Message), 2);
        // Candidates stay woken until drained.
        assert_eq!(net.scheduler().woken_len(), 2);
        assert!(net.scheduler().is_woken(NodeId(0)) && net.scheduler().is_woken(NodeId(2)));
        assert_eq!(visited(&mut net), vec![NodeId(0), NodeId(2)]);
        assert!(visited(&mut net).is_empty(), "drained nodes sleep again");
        // A receiver that dies before the drain is left out of it, its
        // inbox discarded and its wake cleared.
        net.broadcast(NodeId(1), 7, 4, Phase::Test);
        net.deliver();
        net.kill(NodeId(2));
        assert_eq!(visited(&mut net), vec![NodeId(0)]);
        assert!(!net.scheduler().is_woken(NodeId(2)));
        assert!(take_inbox(&mut net, NodeId(2)).is_empty());
    }

    /// Timers wake their node at (or after) the scheduled tick.
    #[test]
    fn scheduled_timer_wakes_node_at_tick() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.schedule_wake(2, 0, NodeId(1));
        net.deliver(); // tick 1: nothing due
        assert!(visited(&mut net).is_empty());
        net.deliver(); // tick 2: timer fires
        assert_eq!(visited(&mut net), vec![NodeId(1)]);
        assert_eq!(net.scheduler().wakes_by(WakeReason::Timer), 1);
        assert_eq!(net.scheduler().pending_timers(), 0);
        // The tick-activity counters saw exactly one fresh wake in two
        // recorded ticks.
        assert_eq!(net.stats().ticks(), 2);
        assert_eq!(net.stats().woken_total(), 1);
    }

    /// AllScan mode yields every node regardless of wake state, and the
    /// quiescent wake-list is empty — the two drain policies only
    /// differ in *which no-op nodes get visited*.
    #[test]
    fn drain_modes_differ_only_in_visited_sleepers() {
        let mut net: Network<u8> = perfect_line(5, 0.3, 0.35);
        net.deliver(); // quiescent tick
        assert!(visited(&mut net).is_empty(), "quiescent wake-list is empty");
        net.set_drain_mode(DrainMode::AllScan);
        assert_eq!(net.drain_mode(), DrainMode::AllScan);
        // Every extra candidate has an empty inbox: visiting it is a
        // no-op, which is the byte-identity argument in DESIGN.md §16.
        let mut sizes = Vec::new();
        net.drain(|_, _, mail| sizes.push(mail.len()));
        assert_eq!(sizes, vec![0; 5], "reference path scans everyone");
    }

    /// Mobility steps wake the moved nodes.
    #[test]
    fn move_node_registers_mobility_wake() {
        let mut net: Network<u8> = perfect_line(3, 0.1, 1.0);
        net.move_node(NodeId(2), Position::new(0.5, 0.5));
        assert!(net.scheduler().is_woken(NodeId(2)));
        assert_eq!(net.scheduler().wakes_by(WakeReason::Mobility), 1);
        assert_eq!(visited(&mut net), vec![NodeId(2)]);
    }

    /// Fault application wakes the affected nodes (kill, revive, and
    /// targeted drains all register `WakeReason::Fault`).
    #[test]
    fn faults_register_fault_wakes() {
        let mut net: Network<u8> = perfect_line(4, 0.1, 1.0);
        net.set_fault_plan(FaultPlan::parse("1 outage 2 for 3\n2 drain 0 x4.0\n").expect("parses"));
        net.deliver(); // tick 1: node 2 goes down
        assert!(net.scheduler().is_woken(NodeId(2)));
        assert!(visited(&mut net).is_empty(), "the down node is discarded");
        net.deliver(); // tick 2: targeted drain on node 0
        assert!(net.scheduler().is_woken(NodeId(0)));
        assert_eq!(visited(&mut net), vec![NodeId(0)]);
        net.deliver();
        net.deliver(); // tick 4: node 2 recovers -> fault wake again
        assert!(net.scheduler().is_woken(NodeId(2)));
        assert_eq!(net.scheduler().wakes_by(WakeReason::Fault), 3);
    }
}
