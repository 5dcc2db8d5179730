//! Deterministic event scheduler and wake-list.
//!
//! The paper's central premise is that snapshot maintenance lets most
//! nodes stay idle most of the time — so the simulator must not pay
//! O(N) per tick just to discover that nothing happened. This module
//! provides the two pieces that make quiescent ticks cost O(active):
//!
//! * An **event queue** keyed `(tick, priority, node, seq)` in
//!   [`BTreeMap`] order. Iteration order — and therefore every trace,
//!   CSV and stdout byte derived from it — is a pure function of what
//!   was scheduled, never of hash state or insertion timing. Timers
//!   registered through [`Scheduler::schedule`] fire at the tick
//!   boundary inside `Network::deliver`, waking their node.
//! * A **wake-list** (the active set): a sparse set over node ids,
//!   maintained by every event source — message delivery, timer
//!   expiry, fault application, and mobility. Marking, unmarking and
//!   membership tests are O(1) and allocation-free (the backing
//!   vectors are sized once at construction). `Network::drain` reads
//!   the woken set in **ascending node-id order** (sorted in place on
//!   read), which is exactly the order the old all-nodes scan visited
//!   them — the byte-identity argument in DESIGN.md §16.
//!
//! The wake-list invariant: **every node with a non-empty inbox is
//! woken.** `Network::deliver` marks each receiver as it pushes into
//! the inbox; `Network::drain` unmarks each candidate as it hands the
//! node its mail. A woken node with an *empty* inbox (timer, fault or
//! mobility wake) is harmless to visit — an empty visit consumes no
//! RNG and emits no telemetry, so visiting only woken nodes is
//! observably identical to visiting all of them.

use crate::node::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};

/// Why a node was woken. Every scheduler event source registers its
/// wake under one of these reasons, and each reason has a unit test in
/// `sim.rs` showing its source registering it. A reason that no source
/// registers is only a [`Scheduler::wakes_by`] counter reading 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WakeReason {
    /// A message was delivered into the node's inbox.
    Message,
    /// A timer registered with [`Scheduler::schedule`] came due.
    Timer,
    /// Fault application (crash/outage/blackout/drain) touched the
    /// node, or a scheduled recovery revived it.
    Fault,
    /// Mobility moved the node.
    Mobility,
}

impl WakeReason {
    /// Every reason, in canonical order.
    pub const ALL: [WakeReason; 4] = [
        WakeReason::Message,
        WakeReason::Timer,
        WakeReason::Fault,
        WakeReason::Mobility,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            WakeReason::Message => 0,
            WakeReason::Timer => 1,
            WakeReason::Fault => 2,
            WakeReason::Mobility => 3,
        }
    }
}

/// Total order for queued events: tick first, then priority (lower
/// fires first), then node id, then registration sequence — so two
/// events scheduled for the same `(tick, priority, node)` fire in
/// registration order, and the whole queue drains deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulation tick the event comes due.
    pub tick: u64,
    /// Same-tick ordering class (0 fires first).
    pub priority: u8,
    /// The node the event wakes.
    pub node: u32,
    /// Registration sequence number (unique per scheduler).
    pub seq: u64,
}

/// How core-layer consumers pick their per-tick drain candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainMode {
    /// Only nodes on the wake-list, ascending (the O(active) path).
    #[default]
    WakeList,
    /// Every node, ascending — the retained pre-refactor reference
    /// path. The equivalence suite asserts both modes produce
    /// byte-identical artifacts.
    AllScan,
}

/// Process-wide default for newly constructed schedulers: 0 =
/// [`DrainMode::WakeList`], 1 = [`DrainMode::AllScan`]. The
/// `experiments --drain-mode all-scan` flag sets it once at startup so
/// the differential suite can run entire experiment pipelines on the
/// reference path without threading a parameter through every setup.
static DEFAULT_DRAIN_MODE: AtomicU8 = AtomicU8::new(0);

/// Set the drain mode every subsequently built [`Scheduler`] (and so
/// every [`Network`](crate::sim::Network)) starts in. Intended for
/// process startup; existing schedulers are unaffected.
pub fn set_default_drain_mode(mode: DrainMode) {
    let v = match mode {
        DrainMode::WakeList => 0,
        DrainMode::AllScan => 1,
    };
    DEFAULT_DRAIN_MODE.store(v, Ordering::Relaxed);
}

/// The current process-wide default drain mode.
pub fn default_drain_mode() -> DrainMode {
    match DEFAULT_DRAIN_MODE.load(Ordering::Relaxed) {
        0 => DrainMode::WakeList,
        _ => DrainMode::AllScan,
    }
}

/// The deterministic event queue plus the wake-list sparse set.
///
/// Owned by [`Network`](crate::sim::Network); one per simulation.
/// All hot-path operations (`wake`, `unwake`, `is_woken`) are O(1)
/// and touch no allocator: the sparse set's backing vectors are sized
/// once for `n` nodes at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduler {
    /// Pending timer events in deterministic `(tick, priority, node,
    /// seq)` order.
    queue: BTreeMap<EventKey, WakeReason>,
    seq: u64,
    /// `pos[i]` = index of node `i` in `list[..wlen]`, or `NOT_WOKEN`.
    pos: Vec<u32>,
    /// Dense storage of woken node ids; only `list[..wlen]` is live.
    list: Vec<u32>,
    wlen: usize,
    drain_mode: DrainMode,
    /// Lifetime count of distinct wake insertions, by reason.
    wakes_by: [u64; 4],
}

const NOT_WOKEN: u32 = u32::MAX;

impl Scheduler {
    /// A scheduler for an `n`-node network, nothing scheduled, nobody
    /// woken.
    pub fn new(n: usize) -> Self {
        Scheduler {
            queue: BTreeMap::new(),
            seq: 0,
            pos: vec![NOT_WOKEN; n],
            list: vec![0; n],
            wlen: 0,
            drain_mode: default_drain_mode(),
            wakes_by: [0; 4],
        }
    }

    /// Number of nodes the wake-list covers.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True for a zero-node scheduler (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The drain-candidate policy in force.
    pub fn drain_mode(&self) -> DrainMode {
        self.drain_mode
    }

    /// Switch the drain-candidate policy (the equivalence suite runs
    /// both and diffs the artifacts).
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.drain_mode = mode;
    }

    /// Register a timer: `node` is woken (reason [`WakeReason::Timer`])
    /// at the first `deliver` whose tick is ≥ `tick`. `priority`
    /// orders same-tick events (0 first).
    pub fn schedule(&mut self, tick: u64, priority: u8, node: NodeId) {
        self.seq += 1;
        self.queue.insert(
            EventKey {
                tick,
                priority,
                node: node.0,
                seq: self.seq,
            },
            WakeReason::Timer,
        );
    }

    /// Number of pending (unfired) timer events.
    pub fn pending_timers(&self) -> usize {
        self.queue.len()
    }

    /// True when at least one queued event is due at or before `tick`.
    /// O(log q); the per-tick fast path that keeps timer-free runs
    /// from ever touching the queue.
    #[inline]
    pub fn has_due(&self, tick: u64) -> bool {
        self.queue
            .first_key_value()
            .is_some_and(|(k, _)| k.tick <= tick)
    }

    /// Pop every event due at or before `tick`, in key order, waking
    /// each event's node. Returns how many events fired.
    pub fn fire_due(&mut self, tick: u64) -> usize {
        let mut fired = 0;
        while let Some((key, _)) = self.queue.first_key_value() {
            if key.tick > tick {
                break;
            }
            let node = key.node;
            self.queue.pop_first();
            // The queue's only producer is `schedule`, so every popped
            // event is a timer expiry.
            self.wake(NodeId(node), WakeReason::Timer);
            fired += 1;
        }
        fired
    }

    /// Mark `node` woken. Idempotent; O(1); allocation-free (the
    /// backing vectors were sized at construction). Returns `true` if
    /// the node was newly woken.
    #[inline]
    pub fn wake(&mut self, node: NodeId, reason: WakeReason) -> bool {
        let i = node.index();
        if self.pos[i] != NOT_WOKEN {
            return false;
        }
        self.pos[i] = self.wlen as u32;
        self.list[self.wlen] = node.0;
        self.wlen += 1;
        self.wakes_by[reason.index()] += 1;
        true
    }

    /// Unmark `node` (called as a drain visits it). Idempotent; O(1).
    #[inline]
    pub fn unwake(&mut self, node: NodeId) {
        let i = node.index();
        let p = self.pos[i];
        if p == NOT_WOKEN {
            return;
        }
        // Swap-remove from the dense list; fix the moved entry's slot.
        self.wlen -= 1;
        let moved = self.list[self.wlen];
        self.list[p as usize] = moved;
        self.pos[moved as usize] = p;
        self.pos[i] = NOT_WOKEN;
    }

    /// True when `node` is on the wake-list.
    #[inline]
    pub fn is_woken(&self, node: NodeId) -> bool {
        self.pos[node.index()] != NOT_WOKEN
    }

    /// Number of currently woken nodes.
    #[inline]
    pub fn woken_len(&self) -> usize {
        self.wlen
    }

    /// Lifetime count of distinct wake insertions (all reasons).
    pub fn total_wakes(&self) -> u64 {
        self.wakes_by.iter().sum()
    }

    /// Lifetime count of distinct wake insertions for one reason.
    pub fn wakes_by(&self, reason: WakeReason) -> u64 {
        self.wakes_by[reason.index()]
    }

    /// Fill `buf` (cleared first) with this tick's drain candidates in
    /// ascending node-id order: the woken set under
    /// [`DrainMode::WakeList`], every node under [`DrainMode::AllScan`].
    /// Sorts the wake-list in place — `sort_unstable` on a `u32` slice
    /// allocates nothing — so the candidate order matches the old
    /// all-nodes ascending scan exactly.
    pub(crate) fn drain_candidates_into(&mut self, buf: &mut Vec<NodeId>) {
        // `buf` is the caller's recycled scratch buffer, so once warm
        // neither extend below allocates.
        buf.clear();
        match self.drain_mode {
            DrainMode::WakeList => {
                let live = &mut self.list[..self.wlen];
                live.sort_unstable();
                // Re-point the sparse slots at the sorted positions so
                // subsequent unwakes stay O(1).
                for (p, &id) in live.iter().enumerate() {
                    self.pos[id as usize] = p as u32;
                }
                buf.extend(live.iter().map(|&id| NodeId(id)));
            }
            DrainMode::AllScan => {
                buf.extend((0..self.pos.len()).map(NodeId::from_index));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_unwake_is_a_sparse_set() {
        let mut s = Scheduler::new(8);
        assert_eq!(s.woken_len(), 0);
        assert!(s.wake(NodeId(3), WakeReason::Message));
        assert!(!s.wake(NodeId(3), WakeReason::Message), "idempotent");
        assert!(s.wake(NodeId(1), WakeReason::Fault));
        assert!(s.wake(NodeId(7), WakeReason::Mobility));
        assert!(s.is_woken(NodeId(3)));
        assert!(!s.is_woken(NodeId(0)));
        assert_eq!(s.woken_len(), 3);
        s.unwake(NodeId(3));
        s.unwake(NodeId(3)); // idempotent
        assert!(!s.is_woken(NodeId(3)));
        assert_eq!(s.woken_len(), 2);
        assert_eq!(s.total_wakes(), 3, "re-wakes of a woken node do not count");
        assert_eq!(s.wakes_by(WakeReason::Message), 1);
        assert_eq!(s.wakes_by(WakeReason::Fault), 1);
    }

    #[test]
    fn drain_candidates_are_sorted_ascending() {
        let mut s = Scheduler::new(10);
        for id in [9u32, 2, 5, 0, 7] {
            s.wake(NodeId(id), WakeReason::Message);
        }
        let mut buf = Vec::new();
        s.drain_candidates_into(&mut buf);
        let got: Vec<u32> = buf.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 2, 5, 7, 9]);
        // Unwakes after the in-place sort still work (slots re-pointed).
        s.unwake(NodeId(5));
        s.drain_candidates_into(&mut buf);
        let got: Vec<u32> = buf.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 2, 7, 9]);
    }

    #[test]
    fn all_scan_mode_yields_every_node() {
        let mut s = Scheduler::new(4);
        s.set_drain_mode(DrainMode::AllScan);
        s.wake(NodeId(2), WakeReason::Message);
        let mut buf = vec![NodeId(99)]; // cleared first
        s.drain_candidates_into(&mut buf);
        let got: Vec<u32> = buf.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn timers_fire_in_key_order_exactly_once() {
        let mut s = Scheduler::new(8);
        s.schedule(5, 1, NodeId(4));
        s.schedule(5, 0, NodeId(6));
        s.schedule(3, 0, NodeId(1));
        s.schedule(9, 0, NodeId(2));
        assert_eq!(s.pending_timers(), 4);
        assert!(!s.has_due(2));
        assert!(s.has_due(3));
        assert_eq!(s.fire_due(5), 3, "ticks 3 and 5 fire, tick 9 waits");
        let mut buf = Vec::new();
        s.drain_candidates_into(&mut buf);
        let got: Vec<u32> = buf.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![1, 4, 6]);
        assert_eq!(s.fire_due(5), 0, "events fire once");
        assert_eq!(s.pending_timers(), 1);
        assert_eq!(s.wakes_by(WakeReason::Timer), 3);
    }

    #[test]
    fn event_key_order_is_tick_priority_node_seq() {
        let a = EventKey {
            tick: 1,
            priority: 0,
            node: 9,
            seq: 4,
        };
        let b = EventKey {
            tick: 1,
            priority: 1,
            node: 0,
            seq: 1,
        };
        let c = EventKey {
            tick: 2,
            priority: 0,
            node: 0,
            seq: 0,
        };
        let d = EventKey {
            tick: 1,
            priority: 0,
            node: 9,
            seq: 7,
        };
        assert!(a < b && b < c && a < d && d < b);
    }

    #[test]
    fn same_node_can_be_scheduled_twice() {
        let mut s = Scheduler::new(2);
        s.schedule(1, 0, NodeId(0));
        s.schedule(1, 0, NodeId(0));
        assert_eq!(s.fire_due(1), 2, "both events fire; the wake is idempotent");
        assert_eq!(s.woken_len(), 1);
        assert_eq!(s.wakes_by(WakeReason::Timer), 1);
    }
}
