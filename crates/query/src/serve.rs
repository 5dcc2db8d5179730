//! The snapshot query *service*: concurrent multi-query serving over
//! one live network.
//!
//! The paper's snapshot exists so that *many* queries can be answered
//! cheaply from representatives. This module is the serving layer that
//! cashes that promise in: a [`QueryService`] admits thousands of
//! concurrent declarative queries — one-shot and `SAMPLE INTERVAL …
//! FOR …` subscriptions — against a single [`SensorNetwork`], and
//! drives them tick by tick with
//!
//! * a **plan cache** keyed on normalized query text
//!   ([`normalize`]), with per-lookup hit/miss telemetry
//!   (`plan_cache` events in the trace);
//! * **shared-scan batching**: queries whose plans address the same
//!   representative set (same spatial predicate, mode, value filter
//!   and routing preference — everything but the aggregate) are
//!   coalesced into **one** drill-through scan per tick, and each
//!   distinct aggregate of the group is folded **once** from the
//!   shared rows, only when some member's final epoch completes. This
//!   is exact, not approximate: the core executor itself computes
//!   `value = aggregate.apply(rows)`, so folding the same rows
//!   reproduces byte-identical answers (see DESIGN.md §17);
//! * **shared readings**: a tick's scans run through one
//!   [`ScanBatch`](snapshot_core::ScanBatch), so each node's reading
//!   — its own measurement, or its representative's model estimate —
//!   is computed at most once per tick and mode however many
//!   signatures address it;
//! * **per-tenant fairness** with bounded queues and backpressure:
//!   each tenant owns a FIFO of at most `queue_capacity` submissions
//!   and is drained at most `fair_share` queries per tick, round-robin
//!   in tenant-id order; a full queue rejects with the typed
//!   [`ServeError::Overloaded`] — never a panic, never unbounded
//!   memory;
//! * **subscription timers** registered on the simulator's event
//!   scheduler (`Network::schedule_wake`), so a serving tick with due
//!   epochs is an *active* tick for the event-driven core and the
//!   wake-list drain stays equivalent to the all-scan reference.
//!
//! Everything is deterministic: queues and batch groups live in
//! `BTreeMap`s keyed by tenant id and canonical scan signature, and
//! the only parallelism seam — batch-planning cache misses — is a pure
//! function of the normalized text, so a work-queue pool may execute
//! it in any order (see `snapshot_bench::serve`).
//!
//! ```
//! use snapshot_query::prelude::*;
//! use snapshot_query::serve::{QueryService, ServeConfig};
//! # use snapshot_core::{SensorNetwork, SnapshotConfig};
//! # use snapshot_datagen::{random_walk, RandomWalkConfig};
//! # use snapshot_netsim::{EnergyModel, LinkModel, NodeId, Topology};
//! # let data = random_walk(&RandomWalkConfig {
//! #     n_nodes: 20, n_classes: 2, steps: 50,
//! #     ..RandomWalkConfig::paper_defaults(2, 7)
//! # }).unwrap();
//! # let topo = Topology::random_uniform(20, 2.0, 7).unwrap();
//! # let mut sn = SensorNetwork::new(topo, LinkModel::Perfect,
//! #     EnergyModel::default(), SnapshotConfig::paper(1.0, 2048, 7), data.trace);
//! # sn.train(0, 10);
//! # sn.set_time(20);
//! # let _ = sn.elect();
//! let mut svc = QueryService::new(ServeConfig::default(), RegionCatalog::with_quadrants());
//! let ticket = svc.submit(&sn, 0, "SELECT AVG(value) FROM sensors USE SNAPSHOT").unwrap();
//! svc.tick(&mut sn);
//! let done = svc.take_completions();
//! assert_eq!(done[0].ticket, ticket);
//! assert!(done[0].value.is_some());
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::catalog::RegionCatalog;
use crate::error::QueryError;
use crate::executor::execute_plan_history;
use crate::parser::parse;
use crate::planner::{plan, QueryPlan};
use snapshot_core::{Aggregate, SensorNetwork, SnapshotQuery};
use snapshot_netsim::{Event, NodeId, SpanKind};
use snapshot_store::{ActiveRecord, PendingRecord, ServeStateRecord, SnapshotStore};

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hard bound on each tenant's submission queue; the submission
    /// that would exceed it is rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Queries admitted per tenant per tick (the round-robin fair
    /// share).
    pub fair_share: usize,
    /// The sink node every scan collects at.
    pub sink: NodeId,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            fair_share: 16,
            sink: NodeId(0),
        }
    }
}

/// Typed serving-layer failure. Backpressure is a value, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The tenant's bounded queue is full; resubmit after a tick.
    Overloaded {
        /// The rejected tenant.
        tenant: u32,
        /// Submissions already queued for the tenant.
        queued: usize,
        /// The configured per-tenant bound.
        capacity: usize,
    },
    /// [`QueryService::recover`] could not rehydrate a persisted
    /// query — its stored text no longer plans under the recovering
    /// catalog.
    Recovery {
        /// The ticket of the query that failed to rehydrate.
        ticket: u64,
        /// Why replanning rejected it.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                tenant,
                queued,
                capacity,
            } => write!(
                f,
                "tenant {tenant} overloaded: {queued} queued of {capacity} allowed"
            ),
            ServeError::Recovery { ticket, detail } => {
                write!(f, "recovery failed for ticket {ticket}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Normalize query text for plan-cache keying: whitespace collapsed
/// to single spaces, ASCII-lowercased. The dialect has no string
/// literals, so lowercasing never changes meaning (keywords, column
/// names, and catalog regions are all case-insensitive).
pub fn normalize(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    for word in sql.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        for ch in word.chars() {
            out.push(ch.to_ascii_lowercase());
        }
    }
    out
}

/// Parse + plan one normalized query text. Pure: same text and
/// catalog, same result — the property that lets a work-queue pool
/// plan cache misses in parallel.
pub fn plan_text(sql: &str, catalog: &RegionCatalog) -> Result<QueryPlan, QueryError> {
    plan(&parse(sql)?, catalog)
}

/// The canonical scan signature: everything about a plan's per-epoch
/// query *except* the aggregate. Two plans with equal signatures are
/// answered from one shared drill-through scan. Groups run in the
/// string order of their signatures, which fixes the completion order.
fn scan_signature(q: &SnapshotQuery) -> Arc<str> {
    format!(
        "{:?}|{:?}|{:?}|{}",
        q.predicate, q.mode, q.value_filter, q.prefer_representative_routing
    )
    .into()
}

/// A cached plan and its scan signature, computed once per plan.
#[derive(Debug, Clone)]
struct CachedPlan {
    plan: QueryPlan,
    signature: Arc<str>,
}

impl CachedPlan {
    fn new(plan: QueryPlan) -> Self {
        let signature = scan_signature(&plan.query);
        CachedPlan { plan, signature }
    }
}

/// `aggregate` over the shared `rows`, folded at most once per group:
/// `folds` keeps each aggregate's value once computed.
fn fold_once(
    folds: &mut Vec<(Aggregate, Option<f64>)>,
    aggregate: Aggregate,
    rows: &[(NodeId, f64)],
) -> Option<f64> {
    if let Some(&(_, value)) = folds.iter().find(|&&(a, _)| a == aggregate) {
        return value;
    }
    let value = aggregate.apply(rows.iter().map(|&(_, v)| v));
    folds.push((aggregate, value));
    value
}

/// One waiting submission.
#[derive(Debug, Clone)]
struct Pending {
    ticket: u64,
    tenant: u32,
    sql: String,
    submitted_at: u64,
}

/// One admitted query with epochs left to serve.
#[derive(Debug, Clone)]
struct Active {
    ticket: u64,
    tenant: u32,
    submitted_at: u64,
    first_result_at: Option<u64>,
    aggregate: Option<Aggregate>,
    scan: SnapshotQuery,
    key: Arc<str>,
    /// Normalized query text, kept so [`QueryService::snapshot_state`]
    /// can persist the query and [`QueryService::recover`] can replan
    /// it — the plan itself is derived state, never serialized.
    sql: String,
    interval: u64,
    remaining: u64,
    epochs_total: u64,
}

/// A finished query, one-shot or subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The ticket [`QueryService::submit`] returned.
    pub ticket: u64,
    /// The submitting tenant.
    pub tenant: u32,
    /// Tick the query was submitted at.
    pub submitted_at: u64,
    /// Tick the first epoch was served at (`None` for plan errors).
    pub first_result_at: Option<u64>,
    /// Tick the query finished at (last epoch, or rejection).
    pub completed_at: u64,
    /// Sampling epochs served.
    pub epochs: u64,
    /// The final epoch's aggregate value (`None` for drill-through
    /// queries and plan errors).
    pub value: Option<f64>,
    /// The final epoch's row count (drill-through queries).
    pub rows: usize,
    /// The planner's rejection, for queries that never ran.
    pub error: Option<String>,
}

impl Completion {
    /// Queueing + planning latency in ticks: submission to first
    /// served epoch.
    pub fn latency_ticks(&self) -> Option<u64> {
        self.first_result_at
            .map(|t| t.saturating_sub(self.submitted_at))
    }
}

/// Serving-layer counters, all deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions accepted into a tenant queue.
    pub submitted: u64,
    /// Submissions rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Queries admitted past the fair-share gate.
    pub admitted: u64,
    /// Admitted queries whose normalized text was already planned.
    pub plan_cache_hits: u64,
    /// Admitted queries that needed a fresh parse + plan.
    pub plan_cache_misses: u64,
    /// Admitted queries the planner rejected.
    pub plan_errors: u64,
    /// Network scans actually executed.
    pub scans: u64,
    /// Query-epochs answered from a scan another query paid for.
    pub coalesced: u64,
    /// Query-epochs served in total.
    pub epochs_served: u64,
    /// Queries completed (including plan errors).
    pub completed: u64,
}

impl ServeStats {
    /// Plan-cache hit rate, `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        (total > 0).then(|| self.plan_cache_hits as f64 / total as f64)
    }

    /// The store's fixed-width counter encoding (field order is part
    /// of the `snapshot-store v2` format — append only).
    fn to_array(self) -> [u64; 10] {
        [
            self.submitted,
            self.rejected,
            self.admitted,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_errors,
            self.scans,
            self.coalesced,
            self.epochs_served,
            self.completed,
        ]
    }

    fn from_array(a: [u64; 10]) -> Self {
        ServeStats {
            submitted: a[0],
            rejected: a[1],
            admitted: a[2],
            plan_cache_hits: a[3],
            plan_cache_misses: a[4],
            plan_errors: a[5],
            scans: a[6],
            coalesced: a[7],
            epochs_served: a[8],
            completed: a[9],
        }
    }
}

/// The long-running serving frontend. See the [module docs](self) for
/// the architecture; drive it with [`QueryService::submit`] and one
/// [`QueryService::tick`] per simulator tick. `Clone` snapshots the
/// whole serving state (queues, cache, in-flight work) — the
/// microbenches use it to restart each iteration from a warm state.
#[derive(Debug, Clone)]
pub struct QueryService {
    config: ServeConfig,
    catalog: RegionCatalog,
    next_ticket: u64,
    queues: BTreeMap<u32, VecDeque<Pending>>,
    cache: BTreeMap<String, CachedPlan>,
    due: BTreeMap<u64, Vec<Active>>,
    completions: Vec<Completion>,
    stats: ServeStats,
    /// Attached snapshot store: answers `AS OF` / `BETWEEN` queries
    /// and receives serve-state checkpoints. The service only *reads*
    /// stored versions; appends go through the owner's handle.
    store: Option<SnapshotStore>,
}

impl QueryService {
    /// A fresh service with an empty plan cache.
    pub fn new(config: ServeConfig, catalog: RegionCatalog) -> Self {
        QueryService {
            config,
            catalog,
            next_ticket: 1,
            queues: BTreeMap::new(),
            cache: BTreeMap::new(),
            due: BTreeMap::new(),
            completions: Vec::new(),
            stats: ServeStats::default(),
            store: None,
        }
    }

    /// Attach a snapshot store. Time-travel (`AS OF` / `BETWEEN`)
    /// queries are answered from it at admission; without one they
    /// complete with a typed error.
    pub fn attach_store(&mut self, store: SnapshotStore) {
        self.store = Some(store);
    }

    /// The attached snapshot store, if any.
    pub fn store(&self) -> Option<&SnapshotStore> {
        self.store.as_ref()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Submissions waiting in tenant queues.
    pub fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Admitted queries with epochs still to serve.
    pub fn in_flight(&self) -> usize {
        self.due.values().map(Vec::len).sum()
    }

    /// True when no queued or admitted work remains.
    pub fn idle(&self) -> bool {
        self.queued() == 0 && self.in_flight() == 0
    }

    /// Enqueue one query for `tenant`. Returns a ticket to correlate
    /// the eventual [`Completion`], or [`ServeError::Overloaded`] when
    /// the tenant's bounded queue is full.
    pub fn submit(
        &mut self,
        sn: &SensorNetwork,
        tenant: u32,
        sql: &str,
    ) -> Result<u64, ServeError> {
        let queue = self.queues.entry(tenant).or_default();
        if queue.len() >= self.config.queue_capacity {
            self.stats.rejected += 1;
            return Err(ServeError::Overloaded {
                tenant,
                queued: queue.len(),
                capacity: self.config.queue_capacity,
            });
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        queue.push_back(Pending {
            ticket,
            tenant,
            sql: sql.to_owned(),
            submitted_at: sn.now() as u64,
        });
        self.stats.submitted += 1;
        Ok(ticket)
    }

    /// One serving tick with the default (serial) batch planner.
    pub fn tick(&mut self, sn: &mut SensorNetwork) {
        let catalog = self.catalog.clone();
        self.tick_with(sn, |texts| {
            texts.iter().map(|t| plan_text(t, &catalog)).collect()
        });
    }

    /// One serving tick: admit up to the fair share per tenant (batch-
    /// planning cache misses through `plan_batch`), then execute every
    /// due epoch, one shared scan per distinct signature.
    ///
    /// `plan_batch` receives the deduplicated normalized texts of this
    /// tick's cache misses, in first-seen order, and must return one
    /// plan per text in the same order. It must be a pure function of
    /// the texts — the bench harness hands the list to its work-queue
    /// pool, so results must not depend on execution order.
    pub fn tick_with<F>(&mut self, sn: &mut SensorNetwork, plan_batch: F)
    where
        F: Fn(&[String]) -> Vec<Result<QueryPlan, QueryError>>,
    {
        let tick_span = sn.net_mut().open_span(SpanKind::ServeTick);
        self.admit(sn, plan_batch);
        self.serve_due(sn);
        sn.net_mut().close_span(tick_span);
    }

    /// Drain the fair share from every tenant queue and resolve each
    /// drained submission through the plan cache.
    fn admit<F>(&mut self, sn: &mut SensorNetwork, plan_batch: F)
    where
        F: Fn(&[String]) -> Vec<Result<QueryPlan, QueryError>>,
    {
        if self.queued() == 0 {
            return;
        }
        let admit_span = sn.net_mut().open_span(SpanKind::ServeAdmit);
        let now = sn.now() as u64;

        // Round-robin: tenant-id order, at most `fair_share` each.
        let mut drained: Vec<Pending> = Vec::new();
        for queue in self.queues.values_mut() {
            for _ in 0..self.config.fair_share {
                match queue.pop_front() {
                    Some(p) => drained.push(p),
                    None => break,
                }
            }
        }
        self.queues.retain(|_, q| !q.is_empty());

        // Batch-plan the distinct uncached texts, first-seen order.
        let keys: Vec<String> = drained.iter().map(|p| normalize(&p.sql)).collect();
        let mut misses: Vec<String> = Vec::new();
        for key in &keys {
            if !self.cache.contains_key(key) && !misses.contains(key) {
                misses.push(key.clone());
            }
        }
        let planned: BTreeMap<String, Result<QueryPlan, QueryError>> = plan_batch(&misses)
            .into_iter()
            .zip(misses)
            .map(|(r, k)| (k, r))
            .collect();

        for (p, key) in drained.into_iter().zip(keys) {
            self.stats.admitted += 1;
            let hit = self.cache.contains_key(&key);
            if hit {
                self.stats.plan_cache_hits += 1;
            } else {
                self.stats.plan_cache_misses += 1;
            }
            sn.net_mut().emit(Event::PlanCacheLookup {
                tick: now,
                tenant: p.tenant,
                hit,
            });
            let cached = self.cache.get(&key).cloned();
            let CachedPlan { plan, signature } = match cached {
                Some(cached) => cached,
                None => match planned.get(&key) {
                    Some(Ok(plan)) => {
                        let cached = CachedPlan::new(plan.clone());
                        self.cache.insert(key.clone(), cached.clone());
                        cached
                    }
                    other => {
                        // A planner rejection — or, defensively, a
                        // batch planner that returned fewer plans than
                        // texts. Either way the query completes now
                        // with a typed error, never a panic.
                        let message = match other {
                            Some(Err(e)) => e.to_string(),
                            _ => "batch planner returned no plan for this query".to_owned(),
                        };
                        self.stats.plan_errors += 1;
                        self.stats.completed += 1;
                        self.completions.push(Completion {
                            ticket: p.ticket,
                            tenant: p.tenant,
                            submitted_at: p.submitted_at,
                            first_result_at: None,
                            completed_at: now,
                            epochs: 0,
                            value: None,
                            rows: 0,
                            error: Some(message),
                        });
                        continue;
                    }
                },
            };
            if plan.history.is_some() {
                // Time-travel queries never touch the network: they
                // are answered from the attached store at admission,
                // one epoch per stored version in range.
                self.answer_history(&p, &plan, now);
                continue;
            }
            let active = Active {
                ticket: p.ticket,
                tenant: p.tenant,
                submitted_at: p.submitted_at,
                first_result_at: None,
                aggregate: plan.query.aggregate,
                scan: SnapshotQuery {
                    aggregate: None,
                    ..plan.query.clone()
                },
                key: signature,
                sql: key,
                interval: plan.interval_ticks.max(1),
                remaining: plan.epochs.max(1),
                epochs_total: plan.epochs.max(1),
            };
            self.schedule(sn, now, active);
        }
        sn.net_mut().close_span(admit_span);
    }

    /// Answer one admitted time-travel query from the attached store,
    /// completing it immediately — no scan, no scheduling.
    fn answer_history(&mut self, p: &Pending, plan: &QueryPlan, now: u64) {
        let done = |value, rows, epochs, error| Completion {
            ticket: p.ticket,
            tenant: p.tenant,
            submitted_at: p.submitted_at,
            first_result_at: Some(now),
            completed_at: now,
            epochs,
            value,
            rows,
            error,
        };
        let completion = match &self.store {
            None => done(
                None,
                0,
                0,
                Some(
                    "no snapshot store attached: time-travel queries need \
                     QueryService::attach_store"
                        .to_owned(),
                ),
            ),
            Some(store) => match execute_plan_history(store, plan, self.config.sink) {
                Err(e) => done(None, 0, 0, Some(e.to_string())),
                Ok(hist) => {
                    self.stats.epochs_served += hist.epochs.len() as u64;
                    let last = hist.epochs.last();
                    let value = last.and_then(|e| e.result.value);
                    let rows = match plan.query.aggregate {
                        None => last.map_or(0, |e| e.result.rows.len()),
                        Some(_) => 0,
                    };
                    done(value, rows, hist.epochs.len() as u64, None)
                }
            },
        };
        self.stats.completed += 1;
        self.completions.push(completion);
    }

    /// Park `active` in the `at`-tick bucket and register the wake
    /// timer with the event scheduler (future ticks only — the current
    /// tick is already active by construction).
    fn schedule(&mut self, sn: &mut SensorNetwork, at: u64, active: Active) {
        if at > sn.now() as u64 {
            sn.net_mut().schedule_wake(at, 1, self.config.sink);
        }
        self.due.entry(at).or_default().push(active);
    }

    /// Execute every epoch due at the current tick: group by scan
    /// signature, run one drill-through scan per group through one
    /// [`ScanBatch`](snapshot_core::ScanBatch) for the whole tick, and
    /// fold each distinct aggregate of a group once, for the members
    /// whose final epoch completes now.
    fn serve_due(&mut self, sn: &mut SensorNetwork) {
        let now = sn.now() as u64;
        let mut due: Vec<Active> = Vec::new();
        // Overdue buckets (possible when a driver skips ticks) are
        // served now rather than dropped.
        let stale: Vec<u64> = self.due.range(..=now).map(|(&t, _)| t).collect();
        for t in stale {
            if let Some(batch) = self.due.remove(&t) {
                due.extend(batch);
            }
        }
        if due.is_empty() {
            return;
        }

        let mut groups: BTreeMap<Arc<str>, Vec<Active>> = BTreeMap::new();
        for a in due {
            groups.entry(Arc::clone(&a.key)).or_default().push(a);
        }

        let mut rescheduled: Vec<Active> = Vec::new();
        let mut batch = sn.scan_batch(self.config.sink);
        for members in groups.into_values() {
            let batch_span = batch.open_span(SpanKind::ServeBatch);
            let shared = batch.query(&members[0].scan);
            self.stats.scans += 1;
            self.stats.coalesced += members.len() as u64 - 1;
            let mut folds: Vec<(Aggregate, Option<f64>)> = Vec::new();
            for mut m in members {
                self.stats.epochs_served += 1;
                if m.first_result_at.is_none() {
                    m.first_result_at = Some(now);
                }
                m.remaining -= 1;
                if m.remaining > 0 {
                    rescheduled.push(m);
                    continue;
                }
                self.stats.completed += 1;
                self.completions.push(Completion {
                    ticket: m.ticket,
                    tenant: m.tenant,
                    submitted_at: m.submitted_at,
                    first_result_at: m.first_result_at,
                    completed_at: now,
                    epochs: m.epochs_total,
                    value: m
                        .aggregate
                        .and_then(|a| fold_once(&mut folds, a, &shared.rows)),
                    rows: if m.aggregate.is_none() {
                        shared.rows.len()
                    } else {
                        0
                    },
                    error: None,
                });
            }
            batch.close_span(batch_span);
        }
        for m in rescheduled {
            let at = now + m.interval;
            self.schedule(sn, at, m);
        }
    }

    /// Drain the accumulated completions (trace order: completion
    /// tick, then grouped by scan signature, then admission order).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Freeze the serving state for persistence, referencing the
    /// network checkpoint stored as `checkpoint_version`. Capture
    /// order is canonical — tenant id then queue order for pending
    /// work, due tick then bucket order for in-flight work — so the
    /// same state always encodes to the same bytes. Take it at a
    /// drained boundary (after [`take_completions`]): completions are
    /// deliberately *not* persisted, they are the already-delivered
    /// output stream.
    ///
    /// [`take_completions`]: QueryService::take_completions
    pub fn snapshot_state(&self, checkpoint_version: u64) -> ServeStateRecord {
        let pending = self
            .queues
            .values()
            .flatten()
            .map(|p| PendingRecord {
                ticket: p.ticket,
                tenant: p.tenant,
                submitted_at: p.submitted_at,
                sql: p.sql.clone(),
            })
            .collect();
        let active = self
            .due
            .iter()
            .flat_map(|(&due, bucket)| {
                bucket.iter().map(move |a| ActiveRecord {
                    due,
                    ticket: a.ticket,
                    tenant: a.tenant,
                    submitted_at: a.submitted_at,
                    first_result_at: a.first_result_at,
                    interval: a.interval,
                    remaining: a.remaining,
                    epochs_total: a.epochs_total,
                    sql: a.sql.clone(),
                })
            })
            .collect();
        ServeStateRecord {
            checkpoint_version,
            next_ticket: self.next_ticket,
            stats: self.stats.to_array(),
            pending,
            active,
        }
    }

    /// Rebuild a service from a persisted [`ServeStateRecord`] —
    /// restart recovery. Every surviving query's normalized text is
    /// replanned through the pure planner (plans are derived state,
    /// never serialized) and in-flight subscriptions re-register
    /// their wake timers on `sn`'s event scheduler; overdue epochs
    /// are served on the next tick rather than dropped. A text that
    /// no longer plans fails with [`ServeError::Recovery`] naming the
    /// ticket — never a panic.
    ///
    /// The recovered plan cache is warmed from surviving queries
    /// only, so future hit/miss *counters* may diverge from an
    /// uninterrupted run; the completion stream itself does not.
    pub fn recover(
        config: ServeConfig,
        catalog: RegionCatalog,
        sn: &mut SensorNetwork,
        rec: &ServeStateRecord,
    ) -> Result<QueryService, ServeError> {
        let mut svc = QueryService::new(config, catalog);
        svc.next_ticket = rec.next_ticket;
        svc.stats = ServeStats::from_array(rec.stats);
        for p in &rec.pending {
            svc.queues.entry(p.tenant).or_default().push_back(Pending {
                ticket: p.ticket,
                tenant: p.tenant,
                sql: p.sql.clone(),
                submitted_at: p.submitted_at,
            });
        }
        for a in &rec.active {
            let plan = plan_text(&a.sql, &svc.catalog).map_err(|e| ServeError::Recovery {
                ticket: a.ticket,
                detail: e.to_string(),
            })?;
            let cached = CachedPlan::new(plan);
            svc.cache.insert(a.sql.clone(), cached.clone());
            let CachedPlan { plan, signature } = cached;
            let active = Active {
                ticket: a.ticket,
                tenant: a.tenant,
                submitted_at: a.submitted_at,
                first_result_at: a.first_result_at,
                aggregate: plan.query.aggregate,
                scan: SnapshotQuery {
                    aggregate: None,
                    ..plan.query.clone()
                },
                key: signature,
                sql: a.sql.clone(),
                interval: a.interval,
                remaining: a.remaining,
                epochs_total: a.epochs_total,
            };
            svc.schedule(sn, a.due, active);
        }
        Ok(svc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot_core::SnapshotConfig;
    use snapshot_datagen::{random_walk, RandomWalkConfig};
    use snapshot_netsim::{EnergyModel, LinkModel, Topology};

    fn small_network(seed: u64) -> SensorNetwork {
        let data = random_walk(&RandomWalkConfig {
            n_nodes: 20,
            n_classes: 2,
            steps: 200,
            ..RandomWalkConfig::paper_defaults(2, seed)
        })
        .unwrap();
        let topo = Topology::random_uniform(20, 2.0, seed).expect("valid deployment");
        let mut sn = SensorNetwork::new(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            SnapshotConfig::paper(1.0, 2048, seed),
            data.trace,
        );
        sn.train(0, 10);
        sn.set_time(20);
        let _ = sn.elect();
        sn
    }

    fn service() -> QueryService {
        QueryService::new(ServeConfig::default(), RegionCatalog::with_quadrants())
    }

    fn drain(svc: &mut QueryService, sn: &mut SensorNetwork) -> Vec<Completion> {
        let mut done = Vec::new();
        for _ in 0..1000 {
            if svc.idle() {
                break;
            }
            svc.tick(sn);
            done.extend(svc.take_completions());
            sn.advance(1);
        }
        assert!(svc.idle(), "service did not drain");
        done
    }

    #[test]
    fn normalization_collapses_case_and_whitespace() {
        assert_eq!(
            normalize("  SELECT   AVG(value)\n FROM  sensors "),
            "select avg(value) from sensors"
        );
    }

    #[test]
    fn one_shot_query_completes_with_a_value() {
        let mut sn = small_network(3);
        let mut svc = service();
        let t = svc
            .submit(&sn, 0, "SELECT AVG(value) FROM sensors USE SNAPSHOT")
            .unwrap();
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ticket, t);
        assert!(done[0].value.is_some());
        assert_eq!(done[0].epochs, 1);
        assert_eq!(done[0].error, None);
    }

    #[test]
    fn shared_scan_matches_individual_execution() {
        // Three aggregates over the same signature must coalesce into
        // one scan per tick and still answer exactly what a lone
        // execution answers.
        let sqls = [
            "SELECT AVG(value) FROM sensors USE SNAPSHOT",
            "SELECT SUM(value) FROM sensors USE SNAPSHOT",
            "SELECT COUNT(value) FROM sensors USE SNAPSHOT",
        ];
        let mut lone = Vec::new();
        for sql in sqls {
            let mut sn = small_network(4);
            let mut svc = service();
            svc.submit(&sn, 0, sql).unwrap();
            let done = drain(&mut svc, &mut sn);
            lone.push(done[0].value);
        }

        let mut sn = small_network(4);
        let mut svc = service();
        for sql in sqls {
            svc.submit(&sn, 0, sql).unwrap();
        }
        let done = drain(&mut svc, &mut sn);
        assert_eq!(svc.stats().scans, 1, "signature group must share one scan");
        assert_eq!(svc.stats().coalesced, 2);
        let values: Vec<Option<f64>> = done.iter().map(|c| c.value).collect();
        assert_eq!(values, lone);
    }

    #[test]
    fn plan_cache_hits_on_normalized_repeats() {
        let mut sn = small_network(5);
        let mut svc = service();
        svc.submit(&sn, 0, "SELECT AVG(value) FROM sensors")
            .unwrap();
        svc.submit(&sn, 1, "select avg(value)  from sensors")
            .unwrap();
        svc.submit(&sn, 2, "SELECT  AVG(value) FROM SENSORS")
            .unwrap();
        let _ = drain(&mut svc, &mut sn);
        assert_eq!(svc.stats().plan_cache_misses, 1);
        assert_eq!(svc.stats().plan_cache_hits, 2);
        assert_eq!(svc.cached_plans(), 1);
    }

    #[test]
    fn overload_rejects_typed_and_keeps_the_queue_bounded() {
        let sn = small_network(6);
        let mut svc = QueryService::new(
            ServeConfig {
                queue_capacity: 4,
                ..ServeConfig::default()
            },
            RegionCatalog::with_quadrants(),
        );
        for _ in 0..4 {
            svc.submit(&sn, 9, "SELECT AVG(value) FROM sensors")
                .unwrap();
        }
        let err = svc
            .submit(&sn, 9, "SELECT AVG(value) FROM sensors")
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                tenant: 9,
                queued: 4,
                capacity: 4
            }
        );
        assert_eq!(svc.queued(), 4);
        assert_eq!(svc.stats().rejected, 1);
        // Another tenant is unaffected: fairness isolates queues.
        svc.submit(&sn, 10, "SELECT AVG(value) FROM sensors")
            .unwrap();
    }

    #[test]
    fn subscriptions_serve_one_epoch_per_interval() {
        let mut sn = small_network(7);
        let mut svc = service();
        let start = sn.now() as u64;
        svc.submit(
            &sn,
            0,
            "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 2s FOR 6s USE SNAPSHOT",
        )
        .unwrap();
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].epochs, 3);
        // Epochs at admit, admit+2, admit+4.
        assert_eq!(done[0].first_result_at, Some(start));
        assert_eq!(done[0].completed_at, start + 4);
    }

    #[test]
    fn plan_errors_complete_with_a_typed_error() {
        let mut sn = small_network(8);
        let mut svc = service();
        svc.submit(&sn, 0, "SELECT AVG(value) FROM actuators")
            .unwrap();
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 1);
        assert!(done[0].error.as_deref().unwrap().contains("actuators"));
        assert_eq!(svc.stats().plan_errors, 1);
    }

    #[test]
    fn a_tenant_rectangle_past_i64_counts_every_node() {
        // 500 nodes on a grid of 0.1-wide cells. The corners saturate
        // every cell coordinate to ±i64::MAX, and the scan must still
        // visit only the occupied cells.
        let data = random_walk(&RandomWalkConfig {
            n_nodes: 500,
            steps: 40,
            ..RandomWalkConfig::paper_defaults(4, 5)
        })
        .unwrap();
        let topo = Topology::random_uniform(500, 0.1, 5).expect("valid deployment");
        assert!(topo.is_connected());
        let mut sn = SensorNetwork::new(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            SnapshotConfig::paper(1.0, 2048, 5),
            data.trace,
        );
        sn.set_time(20);
        let mut svc = service();
        let huge = "99999999999999999999";
        let text = format!(
            "SELECT COUNT(value) FROM sensors WHERE loc IN RECT(-{huge}, -{huge}, {huge}, {huge})"
        );
        svc.submit(&sn, 0, &text).unwrap();
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].error, None);
        assert_eq!(done[0].value, Some(500.0));
    }

    #[test]
    fn fair_share_spreads_admission_across_ticks() {
        let mut sn = small_network(9);
        let mut svc = QueryService::new(
            ServeConfig {
                fair_share: 2,
                ..ServeConfig::default()
            },
            RegionCatalog::with_quadrants(),
        );
        for _ in 0..6 {
            svc.submit(&sn, 0, "SELECT AVG(value) FROM sensors")
                .unwrap();
        }
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 6);
        let latencies: Vec<u64> = done.iter().filter_map(Completion::latency_ticks).collect();
        // Two per tick: latencies 0, 0, 1, 1, 2, 2.
        assert_eq!(latencies, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn history_queries_answer_from_the_attached_store() {
        let dir = std::env::temp_dir().join(format!("sq_serve_history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sn = small_network(12);
        let mut store = SnapshotStore::create(dir.join("serve.store")).unwrap();
        store.append_checkpoint(&sn.checkpoint()).unwrap();
        sn.advance(5);
        store.append_checkpoint(&sn.checkpoint()).unwrap();

        let mut svc = service();
        svc.attach_store(store);
        svc.submit(
            &sn,
            0,
            "SELECT AVG(value) FROM sensors AS OF 25 USE SNAPSHOT",
        )
        .unwrap();
        svc.submit(
            &sn,
            0,
            "SELECT AVG(value) FROM sensors BETWEEN 20 AND 25 USE SNAPSHOT",
        )
        .unwrap();
        let scans_before = svc.stats().scans;
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 2);
        // AS OF 25 answers from the tick-25 checkpoint — the live
        // network still sits at tick 25, so a fresh query agrees.
        let p = plan_text(
            "select avg(value) from sensors use snapshot",
            &RegionCatalog::with_quadrants(),
        )
        .unwrap();
        let live = sn.query(&p.query, NodeId(0));
        assert_eq!(
            done[0].value.map(f64::to_bits),
            live.value.map(f64::to_bits)
        );
        assert_eq!(done[0].epochs, 1);
        assert_eq!(done[0].error, None);
        // BETWEEN serves one epoch per stored version.
        assert_eq!(done[1].epochs, 2);
        // Neither touched the network.
        assert_eq!(svc.stats().scans, scans_before);
        assert_eq!(svc.stats().epochs_served, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_without_a_store_completes_with_a_typed_error() {
        let mut sn = small_network(13);
        let mut svc = service();
        svc.submit(&sn, 0, "SELECT AVG(value) FROM sensors AS OF 10")
            .unwrap();
        let done = drain(&mut svc, &mut sn);
        assert_eq!(done.len(), 1);
        assert!(done[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no snapshot store attached"));
    }

    #[test]
    fn serve_state_round_trips_through_recovery() {
        let mut sn = small_network(14);
        let mut svc = service();
        // One long subscription (stays in flight) + queued backlog.
        svc.submit(
            &sn,
            0,
            "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 2s FOR 20s USE SNAPSHOT",
        )
        .unwrap();
        svc.tick(&mut sn);
        sn.advance(1);
        svc.submit(&sn, 3, "SELECT loc, value FROM sensors")
            .unwrap();
        let _ = svc.take_completions();

        let rec = svc.snapshot_state(1);
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.active.len(), 1);
        assert_eq!(rec.next_ticket, 3);
        assert_eq!(rec.stats, svc.stats().to_array());

        let mut recovered = QueryService::recover(
            ServeConfig::default(),
            RegionCatalog::with_quadrants(),
            &mut sn,
            &rec,
        )
        .unwrap();
        assert_eq!(recovered.queued(), 1);
        assert_eq!(recovered.in_flight(), 1);
        assert_eq!(recovered.stats(), svc.stats());
        // The recovered snapshot re-encodes to the identical record.
        assert_eq!(recovered.snapshot_state(1), rec);
        // And keeps serving to completion.
        let done = drain(&mut recovered, &mut sn);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.error.is_none()));
    }

    #[test]
    fn recovery_rejects_unplannable_texts_with_the_ticket() {
        let mut sn = small_network(15);
        let rec = ServeStateRecord {
            checkpoint_version: 1,
            next_ticket: 9,
            stats: [0; 10],
            pending: vec![],
            active: vec![ActiveRecord {
                due: 30,
                ticket: 7,
                tenant: 2,
                submitted_at: 20,
                first_result_at: None,
                interval: 1,
                remaining: 1,
                epochs_total: 1,
                sql: "select avg(value) from actuators".to_owned(),
            }],
        };
        let err = QueryService::recover(
            ServeConfig::default(),
            RegionCatalog::with_quadrants(),
            &mut sn,
            &rec,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ServeError::Recovery {
                ticket: 7,
                detail: "planning error: unknown table `actuators` (this dialect exposes only `sensors`)"
                    .to_owned()
            }
        );
    }

    #[test]
    fn every_aggregate_completion_matches_the_frozen_executor() {
        // Five aggregates on one signature, quadrants, a value filter,
        // a regular-mode scan, a drill-through and subscriptions, on
        // infinite batteries: nothing changes between a tick's scans
        // and its end, so each completion must equal the core
        // executor run on the state after its tick.
        const MIX: &[&str] = &[
            "SELECT AVG(value) FROM sensors USE SNAPSHOT",
            "SELECT SUM(value) FROM sensors USE SNAPSHOT",
            "SELECT COUNT(value) FROM sensors USE SNAPSHOT",
            "SELECT MIN(value) FROM sensors USE SNAPSHOT",
            "SELECT MAX(value) FROM sensors USE SNAPSHOT",
            "SELECT AVG(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
            "SELECT MAX(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
            "SELECT SUM(value) FROM sensors WHERE loc IN SOUTH_WEST_QUADRANT",
            "SELECT MIN(value) FROM sensors WHERE loc IN SOUTH_WEST_QUADRANT",
            "SELECT AVG(value) FROM sensors WHERE value > 1 USE SNAPSHOT",
            "SELECT COUNT(value) FROM sensors WHERE value > 1 USE SNAPSHOT",
            "SELECT loc, value FROM sensors WHERE loc IN NORTH_WEST_QUADRANT USE SNAPSHOT",
            "SELECT MIN(value) FROM sensors SAMPLE INTERVAL 2s FOR 6s USE SNAPSHOT",
            "SELECT SUM(value) FROM sensors SAMPLE INTERVAL 3s FOR 9s USE SNAPSHOT",
        ];
        let catalog = RegionCatalog::with_quadrants();
        let mut sn = small_network(16);
        let mut svc = service();
        let mut texts: BTreeMap<u64, &str> = BTreeMap::new();
        let (mut checked, mut widest_fold) = (0, 0);
        for tick in 0..40 {
            if tick < 12 {
                // A rotating window of the mix, so every tick's groups
                // hold several aggregates and completing members sit
                // beside subscriptions with epochs left.
                for i in 0..9 {
                    let sql = MIX[(tick * 5 + i) % MIX.len()];
                    let ticket = svc.submit(&sn, (i % 3) as u32, sql).unwrap();
                    texts.insert(ticket, sql);
                }
            }
            svc.tick(&mut sn);
            let values = sn.values();
            let mut folded: BTreeMap<Arc<str>, Vec<Aggregate>> = BTreeMap::new();
            for c in svc.take_completions() {
                let plan = plan_text(texts[&c.ticket], &catalog).unwrap();
                let (want, _) = snapshot_core::query::execute_frozen(
                    sn.net().topology(),
                    |id| sn.net().is_alive(id),
                    sn.nodes(),
                    &values,
                    &plan.query,
                    svc.config().sink,
                );
                let ctx = format!("tick {tick}, ticket {}: {}", c.ticket, texts[&c.ticket]);
                assert_eq!(c.error, None, "{ctx}");
                assert_eq!(
                    c.value.map(f64::to_bits),
                    want.value.map(f64::to_bits),
                    "{ctx}: value"
                );
                match plan.query.aggregate {
                    Some(a) => {
                        let aggregates = folded.entry(scan_signature(&plan.query)).or_default();
                        if !aggregates.contains(&a) {
                            aggregates.push(a);
                        }
                    }
                    None => assert_eq!(c.rows, want.rows.len(), "{ctx}: rows"),
                }
                checked += 1;
            }
            widest_fold = folded
                .values()
                .map(Vec::len)
                .max()
                .unwrap_or(0)
                .max(widest_fold);
            sn.advance(1);
            if tick >= 12 && svc.idle() {
                break;
            }
        }
        assert!(svc.idle(), "service did not drain");
        assert_eq!(checked, texts.len());
        assert_eq!(
            widest_fold, 5,
            "some tick must fold five aggregates over one scan"
        );
    }

    #[test]
    fn serving_is_deterministic_per_seed() {
        let run = || {
            let mut sn = small_network(11);
            sn.enable_telemetry(1 << 14);
            let mut svc = service();
            for i in 0..20u32 {
                let sql = if i % 3 == 0 {
                    "SELECT AVG(value) FROM sensors USE SNAPSHOT"
                } else {
                    "SELECT loc, value FROM sensors WHERE loc IN NORTH_EAST_QUADRANT"
                };
                svc.submit(&sn, i % 4, sql).unwrap();
            }
            let done = drain(&mut svc, &mut sn);
            (done, svc.stats(), sn.export_trace_jsonl())
        };
        let (a_done, a_stats, a_trace) = run();
        let (b_done, b_stats, b_trace) = run();
        assert_eq!(a_done, b_done);
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_trace, b_trace);
        assert!(a_trace.contains("\"plan_cache\""));
        assert!(a_trace.contains("\"serve_tick\""));
        assert!(a_trace.contains("\"serve_admit\""));
        assert!(a_trace.contains("\"serve_batch\""));
    }
}
