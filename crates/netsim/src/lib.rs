//! # snapshot-netsim
//!
//! A discrete-time wireless sensor network simulator, built as the
//! evaluation substrate for the *snapshot queries* framework of
//! Kotidis (ICDE 2005).
//!
//! The paper evaluates its protocols on a custom simulator that models
//! node placement in the unit square, a unit-disk broadcast radio with a
//! configurable transmission range, independent per-receiver message
//! loss, and a simple energy model in which the battery is measured in
//! "transmission equivalents". This crate reimplements that substrate
//! with a few production niceties:
//!
//! * **Determinism** — every run is driven by an explicit `u64` seed;
//!   the same seed always yields the same message loss pattern, node
//!   placement and energy trace.
//! * **Typed messages** — protocols exchange an application-defined
//!   payload type through [`Network::broadcast`] / [`Network::unicast`]
//!   and rounds are advanced explicitly with [`Network::deliver`].
//! * **Accounting** — per-node, per-phase message counters
//!   ([`stats::NetStats`]) and per-node batteries ([`energy::Battery`])
//!   make the paper's Table 2 / Figure 10 experiments directly
//!   measurable.
//!
//! The crate is intentionally independent of the snapshot-query logic:
//! it knows nothing about models, representatives or caches. Higher
//! layers (the `snapshot-core` crate) drive it round by round.
//!
//! ## Quick example
//!
//! ```
//! use snapshot_netsim::prelude::*;
//!
//! // 25 nodes uniformly placed in the unit square, radio range 0.5.
//! let topo = Topology::random_uniform(25, 0.5, 42).expect("valid deployment");
//! let mut net: Network<&'static str> =
//!     Network::new(topo, LinkModel::iid_loss(0.0), EnergyModel::default(), 7);
//!
//! net.broadcast(NodeId(0), "hello", 8, Phase::Test);
//! net.deliver();
//! let nodes: Vec<NodeId> = net.node_ids().collect();
//! for n in nodes {
//!     let inbox = net.take_inbox(n);
//!     if n != NodeId(0) && net.topology().in_range(NodeId(0), n) {
//!         assert_eq!(inbox.len(), 1);
//!     }
//! }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod energy;
pub mod error;
pub mod fault;
pub mod flood;
pub mod grid;
pub mod link;
pub mod message;
pub mod mobility;
pub mod node;
pub mod rng;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod tree;

pub use clock::SimClock;
pub use energy::{Battery, EnergyModel};
pub use error::NetsimError;
pub use fault::{FaultEvent, FaultKind, FaultParseError, FaultPlan, FaultSchedule, FaultTarget};
pub use flood::FloodOutcome;
pub use grid::GridIndex;
pub use link::{GilbertElliott, LinkModel};
pub use message::{Delivery, Destination, Envelope};
pub use mobility::RandomWaypoint;
pub use node::{NodeId, NodeSet};
pub use rng::{DetRng, RngCore, RngExt};
pub use scheduler::{set_default_drain_mode, DrainMode, EventKey, Scheduler, WakeReason};
pub use sim::Network;
pub use snapshot_telemetry::{self as telemetry, Event, Phase, SpanKind, Telemetry};
pub use stats::NetStats;
pub use topology::{Position, Topology};
pub use tree::AggregationTree;

/// Commonly used types, for glob import in examples and tests.
pub mod prelude {
    pub use crate::clock::SimClock;
    pub use crate::energy::{Battery, EnergyModel};
    pub use crate::error::NetsimError;
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultTarget};
    pub use crate::flood::FloodOutcome;
    pub use crate::link::{GilbertElliott, LinkModel};
    pub use crate::message::{Delivery, Destination, Envelope};
    pub use crate::mobility::RandomWaypoint;
    pub use crate::node::NodeId;
    pub use crate::rng::{DetRng, RngCore, RngExt};
    pub use crate::scheduler::{DrainMode, Scheduler, WakeReason};
    pub use crate::sim::Network;
    pub use crate::stats::NetStats;
    pub use crate::topology::{Position, Topology};
    pub use crate::tree::AggregationTree;
    pub use snapshot_telemetry::{Event, Phase, SpanKind, Telemetry};
}
