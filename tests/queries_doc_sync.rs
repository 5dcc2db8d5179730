//! `QUERIES.md` is executable documentation: every ```sql block must
//! parse and plan, and every ```text / ```stats output block must be
//! regenerated byte-for-byte on the canonical handbook deployment.
//! Same contract `fault_injection.rs` enforces for `FAULTS.md`.

use snapshot_queries::core::{SensorNetwork, SnapshotConfig};
use snapshot_queries::datagen::{random_walk, RandomWalkConfig};
use snapshot_queries::netsim::{EnergyModel, LinkModel, NodeId, Topology};
use snapshot_queries::query::serve::{QueryService, ServeConfig};
use snapshot_queries::query::{execute_plan, execute_plan_history, parse, plan, RegionCatalog};
use snapshot_queries::store::SnapshotStore;

/// One fenced code block: its info string ("sql", "text", …) and body.
struct Fence {
    info: String,
    body: String,
}

/// Extract every fenced block, in document order.
fn fences(doc: &str) -> Vec<Fence> {
    let mut out = Vec::new();
    let mut current: Option<Fence> = None;
    for line in doc.lines() {
        match &mut current {
            Some(fence) => {
                if line.trim_end() == "```" {
                    out.push(current.take().expect("fence in progress"));
                } else {
                    fence.body.push_str(line);
                    fence.body.push('\n');
                }
            }
            None => {
                if let Some(info) = line.trim_end().strip_prefix("```") {
                    if !info.is_empty() {
                        current = Some(Fence {
                            info: info.to_string(),
                            body: String::new(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// The canonical handbook deployment (QUERIES.md §8): identical to
/// `tests/query_dialect.rs`'s `network(3)`.
fn canonical_network() -> SensorNetwork {
    let data = random_walk(&RandomWalkConfig::paper_defaults(3, 3)).unwrap();
    let topo =
        Topology::random_uniform(100, std::f64::consts::SQRT_2, 3).expect("valid deployment");
    let mut sn = SensorNetwork::new(
        topo,
        LinkModel::Perfect,
        EnergyModel::default(),
        SnapshotConfig::paper(1.0, 2048, 3),
        data.trace,
    );
    sn.train(0, 10);
    sn.set_time(50);
    let _ = sn.elect();
    sn
}

/// An open store whose file is removed when it drops: the store reads
/// its blocks back from that file, so the file must outlive the
/// queries.
struct TempStore(SnapshotStore);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.0.path());
    }
}

/// The canonical handbook *store* (QUERIES.md §12): the canonical
/// network checkpointed at ticks 50, 55, and 60.
fn canonical_store() -> TempStore {
    let path = std::env::temp_dir().join(format!(
        "queries-doc-sync-{}-{:?}.store",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut sn = canonical_network();
    let mut store = TempStore(SnapshotStore::create(&path).expect("temp dir is writable"));
    store.0.append_checkpoint(&sn.checkpoint()).expect("append");
    for _ in 0..2 {
        sn.advance(5);
        store.0.append_checkpoint(&sn.checkpoint()).expect("append");
    }
    store
}

/// Execute `sql` on a fresh canonical network and render the result
/// the way the handbook shows it: `render_last` for single-epoch
/// executions, one `epoch i:` line per sample otherwise. Time-travel
/// examples run against the canonical store instead.
fn reproduce(sql: &str) -> String {
    let mut sn = canonical_network();
    let planned = plan(
        &parse(sql).expect("sql parses"),
        &RegionCatalog::with_quadrants(),
    )
    .expect("sql plans");
    if planned.history.is_some() {
        return execute_plan_history(&canonical_store().0, &planned, NodeId(0))
            .expect("the canonical store covers every example")
            .render();
    }
    let exec = execute_plan(&mut sn, &planned, NodeId(0));
    if exec.epochs.len() == 1 {
        return exec.render_last(&sn);
    }
    let mut out = String::new();
    for (i, epoch) in exec.epochs.iter().enumerate() {
        let value = epoch.value.expect("handbook subscriptions aggregate");
        out.push_str(&format!(
            "epoch {i}: aggregate = {value:.4} ({} participants)\n",
            epoch.participants
        ));
    }
    out
}

/// The QUERIES.md §10 serving session, reproduced: three tenants
/// submit the same AVG text, a fourth submits MAX (same scan
/// signature), one tick serves all four.
fn reproduce_serving_session() -> String {
    let mut sn = canonical_network();
    let mut svc = QueryService::new(ServeConfig::default(), RegionCatalog::with_quadrants());
    for tenant in 0..3 {
        svc.submit(&sn, tenant, "SELECT AVG(value) FROM sensors USE SNAPSHOT")
            .expect("fresh queue accepts");
    }
    svc.submit(&sn, 3, "SELECT MAX(value) FROM sensors USE SNAPSHOT")
        .expect("fresh queue accepts");
    svc.tick(&mut sn);
    let done = svc.take_completions();
    let ok = done.iter().filter(|c| c.error.is_none()).count();
    let stats = svc.stats();
    format!(
        "completions = {} ({} ok, {} error), epochs served = {}\n\
         plan cache: {} hit(s) / {} miss(es) ({:.1}% hit rate)\n\
         scans = {}, coalesced = {}\n\
         rejected = {}\n",
        done.len(),
        ok,
        done.len() - ok,
        stats.epochs_served,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.hit_rate().expect("lookups happened") * 100.0,
        stats.scans,
        stats.coalesced,
        stats.rejected,
    )
}

#[test]
fn every_sql_example_in_the_handbook_parses_and_plans() {
    let catalog = RegionCatalog::with_quadrants();
    let blocks = fences(include_str!("../QUERIES.md"));
    let sql_blocks: Vec<&Fence> = blocks.iter().filter(|f| f.info == "sql").collect();
    assert!(
        sql_blocks.len() >= 7,
        "QUERIES.md should carry several ```sql examples, found {}",
        sql_blocks.len()
    );
    for fence in sql_blocks {
        let parsed = parse(&fence.body)
            .unwrap_or_else(|e| panic!("```sql block does not parse: {e}\n{}", fence.body));
        plan(&parsed, &catalog)
            .unwrap_or_else(|e| panic!("```sql block does not plan: {e}\n{}", fence.body));
    }
}

#[test]
fn every_text_output_in_the_handbook_is_reproduced_exactly() {
    let blocks = fences(include_str!("../QUERIES.md"));
    let mut last_sql: Option<&str> = None;
    let mut checked = 0;
    for fence in &blocks {
        match fence.info.as_str() {
            "sql" => last_sql = Some(&fence.body),
            "text" => {
                let sql = last_sql
                    .take()
                    .expect("every ```text output follows a ```sql example");
                let actual = reproduce(sql);
                assert_eq!(
                    fence.body, actual,
                    "QUERIES.md output for `{}` drifted;\nexpected (doc):\n{}\nactual (engine):\n{}",
                    sql.trim(),
                    fence.body,
                    actual
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(
        checked >= 6,
        "expected several verified outputs, got {checked}"
    );
}

#[test]
fn the_serving_session_in_the_handbook_is_reproduced_exactly() {
    let blocks = fences(include_str!("../QUERIES.md"));
    let stats: Vec<&Fence> = blocks.iter().filter(|f| f.info == "stats").collect();
    assert_eq!(stats.len(), 1, "QUERIES.md carries one serving session");
    let actual = reproduce_serving_session();
    assert_eq!(
        stats[0].body, actual,
        "QUERIES.md serving session drifted;\nexpected (doc):\n{}\nactual (engine):\n{}",
        stats[0].body, actual
    );
}

#[test]
fn the_grammar_block_matches_the_parser_doc() {
    // The ```ebnf grammar in QUERIES.md §2 is the contract; spot-check
    // the load-bearing productions so a parser change forces a doc
    // update here.
    let blocks = fences(include_str!("../QUERIES.md"));
    let grammar = blocks
        .iter()
        .find(|f| f.info == "ebnf")
        .expect("QUERIES.md carries the grammar");
    for production in [
        "SELECT projection FROM ident",
        "[ AS OF tick | BETWEEN tick AND tick ]",
        "[ SAMPLE INTERVAL duration [ FOR duration ] ]",
        "[ USE SNAPSHOT ]",
        "CIRCLE '(' n ',' n ',' n ')'",
        "'<' | '<=' | '>' | '>=' | '=' | '!=' | '<>'",
    ] {
        assert!(
            grammar.body.contains(production),
            "grammar block lost `{production}`"
        );
    }
}
