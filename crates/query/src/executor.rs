//! Executing plans against a sensor network.
//!
//! A plan with a sampling schedule runs once per epoch, advancing the
//! network's simulated clock by the interval between samples — the
//! continuous-query semantics of `SAMPLE INTERVAL 1s FOR 5min`.

use crate::ast::{History, Query};
use crate::catalog::RegionCatalog;
use crate::error::QueryError;
use crate::planner::{plan, QueryPlan};
use snapshot_core::{QueryResult, SensorNetwork};
use snapshot_netsim::{NodeId, SpanKind};
use snapshot_store::SnapshotStore;

/// The results of a planned (possibly multi-epoch) execution.
#[derive(Debug, Clone)]
pub struct PlannedExecution {
    /// One result per sampling epoch, in time order.
    pub epochs: Vec<QueryResult>,
    /// Whether rows should be rendered with locations.
    pub project_loc: bool,
}

impl PlannedExecution {
    /// The final epoch's result (`None` only for a zero-epoch
    /// execution, which [`execute_plan`] never produces).
    pub fn last(&self) -> Option<&QueryResult> {
        self.epochs.last()
    }

    /// Mean number of participants per epoch.
    pub fn mean_participants(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs
            .iter()
            .map(|e| e.participants as f64)
            .sum::<f64>()
            / self.epochs.len() as f64
    }

    /// Mean coverage per epoch.
    pub fn mean_coverage(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.coverage).sum::<f64>() / self.epochs.len() as f64
    }

    /// Render the final epoch as text rows (for examples and the CLI).
    pub fn render_last(&self, sn: &SensorNetwork) -> String {
        let Some(r) = self.last() else {
            return "-- no epochs executed\n".to_string();
        };
        let topology = sn.net().topology();
        let mut out = String::new();
        render_result(&mut out, r, self.project_loc, |id| {
            let p = topology.position(id);
            (p.x, p.y)
        });
        out
    }
}

/// Append one result as text: the aggregate line, or one row per node
/// (with its location from `position` when `project_loc`), then the
/// participants/coverage footer. The live and time-travel renderers
/// share it, so both print rows the same way.
fn render_result(
    out: &mut String,
    r: &QueryResult,
    project_loc: bool,
    position: impl Fn(NodeId) -> (f64, f64),
) {
    match r.value {
        Some(v) => out.push_str(&format!("aggregate = {v:.4}\n")),
        None => {
            for &(id, v) in &r.rows {
                if project_loc {
                    let (x, y) = position(id);
                    out.push_str(&format!("{id}\t({x:.3},{y:.3})\t{v:.4}\n"));
                } else {
                    out.push_str(&format!("{id}\t{v:.4}\n"));
                }
            }
        }
    }
    out.push_str(&format!(
        "-- {} participants, coverage {:.0}%\n",
        r.participants,
        r.coverage * 100.0
    ));
}

/// Plan a parsed query under a `query_plan` telemetry span attached to
/// `sn`'s trace. Identical to [`plan`] otherwise — use it when the
/// network is tracing and planning time should appear in the span tree
/// next to execution time.
pub fn plan_traced(
    sn: &mut SensorNetwork,
    q: &Query,
    catalog: &RegionCatalog,
) -> Result<QueryPlan, QueryError> {
    let span = sn.net_mut().open_span(SpanKind::QueryPlan);
    let result = plan(q, catalog);
    sn.net_mut().close_span(span);
    result
}

/// Execute a plan against the network, collecting results at `sink`.
/// Advances the network's clock by `interval_ticks` between epochs.
pub fn execute_plan(sn: &mut SensorNetwork, plan: &QueryPlan, sink: NodeId) -> PlannedExecution {
    let span = sn.net_mut().open_span(SpanKind::QueryExec);
    let mut epochs = Vec::with_capacity(plan.epochs as usize);
    for e in 0..plan.epochs {
        if e > 0 {
            sn.advance(plan.interval_ticks as usize);
        }
        epochs.push(sn.query(&plan.query, sink));
    }
    sn.net_mut().close_span(span);
    PlannedExecution {
        epochs,
        project_loc: plan.project_loc,
    }
}

/// One stored version's answer within a time-travel execution.
#[derive(Debug, Clone)]
pub struct HistoryEpoch {
    /// Store version the answer came from.
    pub version: u64,
    /// Tick the checkpoint was taken at.
    pub tick: u64,
    /// The query result, byte-identical to a live query against the
    /// deployment at that tick.
    pub result: QueryResult,
}

/// The results of a time-travel (`AS OF` / `BETWEEN`) execution
/// against the snapshot store: one epoch per stored version in range,
/// oldest first.
#[derive(Debug, Clone)]
pub struct HistoryExecution {
    /// One answer per stored version, oldest first. Empty when a
    /// `BETWEEN` window holds no stored versions.
    pub epochs: Vec<HistoryEpoch>,
    /// Whether rows should be rendered with locations.
    pub project_loc: bool,
    /// Node positions carried from the newest checkpoint in range,
    /// so drill-through rows render with locations without a live
    /// network. Deployments are static, so one copy serves all epochs.
    pub positions: Vec<(f64, f64)>,
}

impl HistoryExecution {
    /// Render every epoch as text, one `-- version` header per stored
    /// version, matching [`PlannedExecution::render_last`]'s row format.
    pub fn render(&self) -> String {
        if self.epochs.is_empty() {
            return "-- no stored versions in range\n".to_string();
        }
        let position = |id: NodeId| {
            self.positions
                .get(id.index())
                .copied()
                .unwrap_or((f64::NAN, f64::NAN))
        };
        let mut out = String::new();
        for e in &self.epochs {
            out.push_str(&format!("-- version {} (tick {})\n", e.version, e.tick));
            render_result(&mut out, &e.result, self.project_loc, position);
        }
        out
    }
}

/// Execute a time-travel plan against the snapshot store — the `AS OF`
/// / `BETWEEN` path. Pure: no network, no clock, no energy accounting;
/// every answer is computed from a stored checkpoint's query image
/// ([`FrozenCheckpoint::execute`](snapshot_core::FrozenCheckpoint::execute)),
/// which the store builds once per version, so it is byte-identical to
/// the same query run live at the checkpoint's tick (or a same-seed
/// replay of it).
///
/// Errors are typed [`QueryError::History`] values: a plan without a
/// time-travel clause, an `AS OF` tick before the first stored
/// version, a corrupt store, or a checkpoint the replay rejects.
pub fn execute_plan_history(
    store: &SnapshotStore,
    plan: &QueryPlan,
    sink: NodeId,
) -> Result<HistoryExecution, QueryError> {
    let checkpoints = match plan.history {
        None => {
            return Err(QueryError::history(
                "plan has no AS OF / BETWEEN clause; use execute_plan for live queries",
            ));
        }
        Some(History::AsOf(tick)) => vec![store
            .checkpoint_as_of(tick)
            .map_err(|e| QueryError::history(e.to_string()))?],
        Some(History::Between(from, to)) => store
            .checkpoints_between(from, to)
            .map_err(|e| QueryError::history(e.to_string()))?,
    };
    let positions = checkpoints
        .last()
        .map(|(_, image)| image.positions().collect())
        .unwrap_or_default();
    let mut epochs = Vec::with_capacity(checkpoints.len());
    for (version, image) in &checkpoints {
        let result = image.execute(&plan.query, sink).map_err(|e| {
            QueryError::history(format!("version {version} (tick {}): {e}", image.tick()))
        })?;
        epochs.push(HistoryEpoch {
            version: *version,
            tick: image.tick(),
            result,
        });
    }
    Ok(HistoryExecution {
        epochs,
        project_loc: plan.project_loc,
        positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RegionCatalog;
    use crate::parser::parse;
    use crate::planner::plan;
    use snapshot_core::SnapshotConfig;
    use snapshot_datagen::{random_walk, RandomWalkConfig};
    use snapshot_netsim::{EnergyModel, LinkModel, Topology};

    fn small_network(seed: u64) -> SensorNetwork {
        let data = random_walk(&RandomWalkConfig {
            n_nodes: 20,
            n_classes: 2,
            steps: 50,
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

    fn run(sn: &mut SensorNetwork, sql: &str) -> PlannedExecution {
        let q = parse(sql).unwrap();
        let p = plan(&q, &RegionCatalog::with_quadrants()).unwrap();
        execute_plan(sn, &p, NodeId(0))
    }

    #[test]
    fn single_shot_aggregate_runs_one_epoch() {
        let mut sn = small_network(5);
        let exec = run(&mut sn, "SELECT AVG(value) FROM sensors");
        assert_eq!(exec.epochs.len(), 1);
        assert!(exec.last().expect("one epoch").value.is_some());
    }

    #[test]
    fn sampling_schedule_runs_many_epochs_and_advances_time() {
        let mut sn = small_network(6);
        let before = sn.now();
        let exec = run(
            &mut sn,
            "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 1s FOR 10s USE SNAPSHOT",
        );
        assert_eq!(exec.epochs.len(), 10);
        assert_eq!(sn.now(), before + 9);
    }

    #[test]
    fn snapshot_mode_uses_fewer_participants_through_sql() {
        let mut sn = small_network(7);
        let reg = run(&mut sn, "SELECT SUM(value) FROM sensors");
        let snap = run(&mut sn, "SELECT SUM(value) FROM sensors USE SNAPSHOT");
        assert!(snap.mean_participants() <= reg.mean_participants());
    }

    #[test]
    fn drill_through_renders_rows_with_locations() {
        let mut sn = small_network(8);
        let exec = run(&mut sn, "SELECT loc, value FROM sensors");
        let text = exec.render_last(&sn);
        assert!(text.contains("N0"));
        assert!(text.contains("participants"));
        // Location tuple present.
        assert!(text.contains('('));
    }

    #[test]
    fn quadrant_filter_restricts_targets() {
        let mut sn = small_network(9);
        let all = run(&mut sn, "SELECT COUNT(value) FROM sensors");
        let quad = run(
            &mut sn,
            "SELECT COUNT(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT",
        );
        let all_count = all.last().expect("one epoch").ground_truth.unwrap();
        let quad_count = quad.last().expect("one epoch").ground_truth.unwrap();
        assert!(quad_count < all_count);
    }

    #[test]
    fn mean_coverage_is_reported() {
        let mut sn = small_network(10);
        let exec = run(
            &mut sn,
            "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 1s FOR 5s",
        );
        assert!(exec.mean_coverage() > 0.9);
    }

    /// A store holding checkpoints of `small_network(seed)` at ticks
    /// 20, 25 and 30, plus the live network left at tick 30.
    fn stored_history(seed: u64, dir: &std::path::Path) -> (SnapshotStore, SensorNetwork) {
        let mut sn = small_network(seed);
        let mut store = SnapshotStore::create(dir.join("history.store")).unwrap();
        store.append_checkpoint(&sn.checkpoint()).unwrap();
        sn.advance(5);
        store.append_checkpoint(&sn.checkpoint()).unwrap();
        sn.advance(5);
        store.append_checkpoint(&sn.checkpoint()).unwrap();
        (store, sn)
    }

    fn history_plan(sql: &str) -> QueryPlan {
        plan(&parse(sql).unwrap(), &RegionCatalog::with_quadrants()).unwrap()
    }

    #[test]
    fn as_of_matches_the_live_answer_at_that_tick() {
        let dir = std::env::temp_dir().join(format!("sq_exec_asof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, mut sn) = stored_history(11, &dir);
        // The live network sits at tick 30 — same state the last
        // checkpoint froze.
        let p = history_plan("SELECT AVG(value) FROM sensors AS OF 30 USE SNAPSHOT");
        let hist = execute_plan_history(&store, &p, NodeId(0)).unwrap();
        assert_eq!(hist.epochs.len(), 1);
        assert_eq!(hist.epochs[0].tick, 30);
        let live = sn.query(&p.query, NodeId(0));
        assert_eq!(
            hist.epochs[0].result.value.map(f64::to_bits),
            live.value.map(f64::to_bits)
        );
        assert_eq!(hist.epochs[0].result.rows, live.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn as_of_picks_the_latest_version_at_or_before_the_tick() {
        let dir = std::env::temp_dir().join(format!("sq_exec_asof_pick-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, _sn) = stored_history(12, &dir);
        let p = history_plan("SELECT COUNT(*) FROM sensors AS OF 27");
        let hist = execute_plan_history(&store, &p, NodeId(0)).unwrap();
        assert_eq!(hist.epochs[0].tick, 25);
        // Before the first checkpoint: typed history error, no panic.
        let p = history_plan("SELECT COUNT(*) FROM sensors AS OF 3");
        let err = execute_plan_history(&store, &p, NodeId(0)).unwrap_err();
        assert!(matches!(err, QueryError::History { .. }));
        assert!(err.to_string().contains("tick 3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn between_yields_one_epoch_per_stored_version_oldest_first() {
        let dir = std::env::temp_dir().join(format!("sq_exec_between-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, _sn) = stored_history(13, &dir);
        let p = history_plan("SELECT AVG(value) FROM sensors BETWEEN 20 AND 30");
        let hist = execute_plan_history(&store, &p, NodeId(0)).unwrap();
        assert_eq!(
            hist.epochs.iter().map(|e| e.tick).collect::<Vec<_>>(),
            vec![20, 25, 30]
        );
        let text = hist.render();
        assert!(text.contains("-- version 1 (tick 20)"));
        assert!(text.contains("aggregate ="));
        // An empty window renders a marker line, not an error.
        let p = history_plan("SELECT AVG(value) FROM sensors BETWEEN 100 AND 200");
        let hist = execute_plan_history(&store, &p, NodeId(0)).unwrap();
        assert!(hist.epochs.is_empty());
        assert_eq!(hist.render(), "-- no stored versions in range\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_drill_through_renders_locations_from_the_store() {
        let dir = std::env::temp_dir().join(format!("sq_exec_hist_loc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, sn) = stored_history(14, &dir);
        let p = history_plan("SELECT loc, value FROM sensors AS OF 30");
        let hist = execute_plan_history(&store, &p, NodeId(0)).unwrap();
        let text = hist.render();
        assert!(text.contains('('));
        // Rendered identically to the live renderer's row format.
        let live = execute_plan(&mut sn.clone(), &p, NodeId(0));
        let live_text = live.render_last(&sn);
        for line in live_text.lines().filter(|l| !l.starts_with("--")) {
            assert!(text.contains(line), "missing row: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_live_plan_is_rejected_by_the_history_executor() {
        let dir = std::env::temp_dir().join(format!("sq_exec_hist_reject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, _sn) = stored_history(15, &dir);
        let p = history_plan("SELECT AVG(value) FROM sensors");
        let err = execute_plan_history(&store, &p, NodeId(0)).unwrap_err();
        assert!(err.to_string().contains("no AS OF"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
