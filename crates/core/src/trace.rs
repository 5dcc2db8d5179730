//! Telemetry glue: translate core-layer outcomes into protocol events.
//!
//! The cache manager is deliberately telemetry-free (it returns a
//! [`CacheDecision`] and lets callers decide what to do with it);
//! every `observe` call site funnels that decision through
//! [`record_cache_decision`] so admissions, evictions and refits show
//! up in the trace with byte-budget pressure attached.

use crate::cache::{CacheDecision, ModelCache};
use snapshot_netsim::telemetry::CacheOutcome;
use snapshot_netsim::{Event, Network, NodeId};

/// Record the telemetry events implied by one cache-manager ruling:
/// a `CacheAdmit` always, a `CacheEvict` when a victim lost a pair,
/// and a `ModelRefit` when the observation entered the cache (the
/// line's model is refit on every admission). Only a ring buffer keeps
/// these events (the metrics registry counts none of them), so without
/// one nothing is built.
pub(crate) fn record_cache_decision<P: Clone>(
    net: &mut Network<P>,
    node: NodeId,
    neighbor: NodeId,
    decision: &CacheDecision,
    cache: &ModelCache,
) {
    if net.telemetry().ring().is_none() {
        return;
    }
    let tick = net.round();
    let used_bytes = cache.used_bytes() as u32;
    let budget_bytes = cache.config().budget_bytes as u32;
    let outcome = match decision {
        CacheDecision::Inserted => CacheOutcome::Inserted,
        CacheDecision::AdmittedEvicting(_) => CacheOutcome::Augmented,
        CacheDecision::NewcomerEvicting(_) => CacheOutcome::Newcomer,
        CacheDecision::TimeShifted => CacheOutcome::TimeShifted,
        CacheDecision::Rejected => CacheOutcome::Rejected,
    };
    net.emit(Event::CacheAdmit {
        tick,
        node: node.0,
        neighbor: neighbor.0,
        outcome,
        used_bytes,
        budget_bytes,
    });
    if let CacheDecision::AdmittedEvicting(victim) | CacheDecision::NewcomerEvicting(victim) =
        decision
    {
        net.emit(Event::CacheEvict {
            tick,
            node: node.0,
            victim: victim.node.0,
            used_bytes,
            budget_bytes,
        });
    }
    if outcome.admitted() {
        net.emit(Event::ModelRefit {
            tick,
            node: node.0,
            neighbor: neighbor.0,
        });
    }
}
