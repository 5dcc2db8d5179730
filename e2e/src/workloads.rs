//! The four workloads. Each sets up its own deployment (datagen →
//! topology → network → training → election), drives it through the
//! public library APIs and checks its answers against the built-in
//! oracles.
//!
//! A workload's deployment — node layout, sensor trace, the protocol's
//! own random choices and link losses, and the representatives that
//! die — comes from the constant [`SCENARIO`], so every run measures
//! the same system rather than the luck of one random layout. `--seed`
//! generates the queries the system is given: the arrival schedule,
//! the value-filter constants, the order of the probes and the
//! captures time travel visits.

use crate::measure::{now_ns, traced_telemetry, Round, ScratchDir};
use crate::speed::Speed;
use snapshot_core::query::execute_frozen;
use snapshot_core::{Aggregate, SensorNetwork, SnapshotConfig, SnapshotQuery};
use snapshot_datagen::{random_walk, RandomWalkConfig};
use snapshot_netsim::rng::{derive_seed, DetRng, RngExt};
use snapshot_netsim::{EnergyModel, LinkModel, NodeId, Telemetry, Topology};
use snapshot_query::serve::plan_text;
use snapshot_query::{Completion, QueryService, RegionCatalog, ServeConfig};
use snapshot_store::SnapshotStore;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;

pub type Res<T> = Result<T, String>;

/// Seed of every workload's deployment.
const SCENARIO: u64 = 2005;
/// Tenants submitting load, assigned round-robin.
const TENANTS: u32 = 8;
/// Every scan and probe collects at this node.
const SINK: NodeId = NodeId(0);

/// The serve experiment's twelve query templates, copied so that edits
/// to the experiment harness cannot change the benchmark.
const TEMPLATES: &[&str] = &[
    "SELECT AVG(value) FROM sensors USE SNAPSHOT",
    "SELECT SUM(value) FROM sensors USE SNAPSHOT",
    "SELECT COUNT(value) FROM sensors USE SNAPSHOT",
    "SELECT MIN(value) FROM sensors USE SNAPSHOT",
    "SELECT MAX(value) FROM sensors USE SNAPSHOT",
    "SELECT AVG(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
    "SELECT SUM(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
    "SELECT loc, value FROM sensors WHERE loc IN SOUTH_WEST_QUADRANT USE SNAPSHOT",
    "SELECT AVG(value) FROM sensors WHERE value > 0 USE SNAPSHOT",
    "SELECT COUNT(value) FROM sensors WHERE loc IN NORTH_WEST_QUADRANT USE SNAPSHOT",
    "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 2s FOR 6s USE SNAPSHOT",
    "SELECT MAX(value) FROM sensors SAMPLE INTERVAL 3s FOR 9s USE SNAPSHOT",
];

/// Time-travel queries as (text before the history clause, text after
/// it): the clause goes right after `FROM sensors`.
const TIME_TRAVEL: &[(&str, &str)] = &[
    ("SELECT AVG(value) FROM sensors", "USE SNAPSHOT"),
    (
        "SELECT SUM(value) FROM sensors",
        "WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
    ),
    (
        "SELECT AVG(value) FROM sensors",
        "WHERE loc IN SOUTH_WEST_QUADRANT",
    ),
];

/// Probe aggregates and regions: each deploy-churn cycle ends with
/// every pair, in snapshot and in regular mode, through `try_query`.
const PROBE_AGGREGATES: &[&str] = &["AVG", "SUM", "MIN", "MAX"];
const PROBE_REGIONS: &[&str] = &[
    "",
    " WHERE loc IN NORTH_EAST_QUADRANT",
    " WHERE loc IN SOUTH_WEST_QUADRANT",
    " WHERE loc IN NORTH_WEST_QUADRANT",
];

/// The `i`-th serve-shared query: a seeded pick from the twelve
/// templates.
pub fn shared_query(seed: u64, i: usize) -> (u32, String) {
    let pick = derive_seed(seed, 0x5A_4ED ^ i as u64) % TEMPLATES.len() as u64;
    (i as u32 % TENANTS, TEMPLATES[pick as usize].to_owned())
}

/// The `i`-th serve-unique query. The value-filter constant grows by
/// 0.2 per query from a seeded offset, so no two texts are equal. The
/// aggregate and the region cycle through their lists from seeded
/// starting points, so every seed asks for the same mix; every 4th
/// query runs in regular mode and every 8th is a 3-epoch subscription.
pub fn unique_query(seed: u64, i: usize) -> (u32, String) {
    const AGGREGATES: [&str; 5] = ["AVG", "SUM", "MIN", "MAX", "COUNT"];
    const REGIONS: [&str; 3] = [
        "",
        " WHERE loc IN NORTH_EAST_QUADRANT",
        " WHERE loc IN SOUTH_WEST_QUADRANT",
    ];
    let h = derive_seed(seed, 0x0_1CE) as usize;
    let region = REGIONS[(i / AGGREGATES.len() + (h >> 8)) % REGIONS.len()];
    let cents = derive_seed(seed, 0x0FF5) % 1000 + 20 * i as u64;
    let filter = format!(
        "{} value > {}.{:02}",
        if region.is_empty() { " WHERE" } else { " AND" },
        cents / 100,
        cents % 100
    );
    let sample = if i.is_multiple_of(8) {
        " SAMPLE INTERVAL 2s FOR 6s"
    } else {
        ""
    };
    let mode = if i % 4 == 1 { "" } else { " USE SNAPSHOT" };
    let sql = format!(
        "SELECT {}(value) FROM sensors{region}{filter}{sample}{mode}",
        AGGREGATES[(i + h) % AGGREGATES.len()]
    );
    (i as u32 % TENANTS, sql)
}

/// The `q`-th history time-travel query over the capture ticks
/// `captures`: `AS OF` a seeded capture tick, except that every 7th is
/// a `BETWEEN` spanning four consecutive captures. Returns the tenant,
/// the text, the template index and the index of the capture whose
/// live answer it must reproduce (for `BETWEEN`, the last epoch's).
pub fn time_travel_query(seed: u64, q: usize, captures: &[u64]) -> (u32, String, usize, usize) {
    let h = derive_seed(seed, 0x71_3E ^ q as u64);
    let template = h as usize % TIME_TRAVEL.len();
    let (head, tail) = TIME_TRAVEL[template];
    let tenant = q as u32 % TENANTS;
    if q % 7 == 6 && captures.len() >= 4 {
        let first = (h >> 16) as usize % (captures.len() - 3);
        let (from, to) = (captures[first], captures[first + 3]);
        let sql = format!("{head} BETWEEN {from} AND {to} {tail}");
        (tenant, sql, template, first + 3)
    } else {
        let at = (h >> 16) as usize % captures.len();
        let sql = format!("{head} AS OF {} {tail}", captures[at]);
        (tenant, sql, template, at)
    }
}

/// The first `count` items of a shuffle of `pool` seeded by `seed`.
fn shuffled<T>(seed: u64, mut pool: Vec<T>, count: usize) -> Vec<T> {
    let count = count.min(pool.len());
    let mut rng = DetRng::seed_from_u64(seed);
    for i in 0..count {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// The representatives deploy-churn kills in one cycle: 0.5 % of
/// `reps` (at least one), never the sink. They are part of the fixed
/// scenario: which representatives die sets the protocol's random
/// course from then on, and a seeded choice moved `answer_err` by
/// about ±30 % between seeds.
pub fn kill_picks(cycle: usize, reps: &[NodeId]) -> Vec<NodeId> {
    let pool: Vec<NodeId> = reps.iter().copied().filter(|&id| id != SINK).collect();
    let count = (pool.len() / 200).max(1);
    shuffled(derive_seed(SCENARIO, 0xC4_11 ^ cycle as u64), pool, count)
}

/// The order in which the `n` deploy-churn probes of one cycle arrive:
/// a seeded shuffle.
pub fn probe_order(seed: u64, cycle: usize, n: usize) -> Vec<usize> {
    shuffled(
        derive_seed(seed, 0x9_80BE ^ cycle as u64),
        (0..n).collect(),
        n,
    )
}

/// A deployment: the paper's random-walk data on a uniform random
/// topology, trained, then elected.
#[derive(Debug, Clone, Copy)]
pub struct Deploy {
    pub n: usize,
    pub k: usize,
    pub range: f64,
    pub p_loss: f64,
    pub steps: usize,
    pub train_until: usize,
    pub elect_at: usize,
}

/// The deployment each workload sets up; `quick` shrinks it for tests.
pub fn deploy(workload: &str, quick: bool) -> Deploy {
    let serve = Deploy {
        n: if quick { 300 } else { 5000 },
        k: 10,
        range: if quick { 0.2 } else { 0.05 },
        p_loss: 0.0,
        steps: 100,
        train_until: 10,
        elect_at: 20,
    };
    match workload {
        "deploy-churn" => {
            let n = if quick { 400 } else { 10_000 };
            Deploy {
                n,
                // The connectivity threshold: mean degree ≈ 2 ln n.
                range: (2.0 * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt(),
                p_loss: 0.05,
                steps: 60,
                ..serve
            }
        }
        "history" => Deploy {
            n: if quick { 60 } else { 500 },
            k: 5,
            range: if quick { 0.4 } else { 0.1 },
            steps: 200,
            ..serve
        },
        _ => serve,
    }
}

/// A deployment that is set up and ready for its first query.
pub struct Deployment {
    sn: SensorNetwork,
    /// Wall time of the set-up, ns, and the same at reference speed.
    setup_ns: u64,
    setup_ref_ns: u64,
    /// The reader of the host's speed that timed the set-up.
    speed: Speed,
    /// Messages training sent; the counters are reset before the
    /// election so its per-node count can be checked.
    train_sent: u64,
    /// Time each set-up layer was busy, ns, by metric name.
    layers: [(&'static str, u64); 4],
    max_msgs: u64,
    snapshot_frac: f64,
}

/// Set the deployment `d` up, timing each step and reading the host's
/// speed between steps, and check the election against the paper's
/// per-node message bound.
pub fn setup(d: &Deploy, traced: bool) -> Res<Deployment> {
    let mut speed = Speed::new();
    let mut setup_ref_ns = 0;
    let mut step = |speed: &mut Speed, start: u64| {
        let ns = now_ns() - start;
        setup_ref_ns += speed.scale(ns);
        ns
    };
    let t = now_ns();
    let data = random_walk(&RandomWalkConfig {
        n_nodes: d.n,
        steps: d.steps,
        ..RandomWalkConfig::paper_defaults(d.k, SCENARIO)
    })
    .map_err(|e| format!("datagen: {e}"))?;
    let datagen = step(&mut speed, t);
    let t = now_ns();
    let topo =
        Topology::random_uniform(d.n, d.range, SCENARIO).map_err(|e| format!("topology: {e}"))?;
    let topology = step(&mut speed, t);
    let t = now_ns();
    let mut sn = SensorNetwork::new(
        topo,
        LinkModel::iid_loss(d.p_loss),
        EnergyModel::default(),
        SnapshotConfig::paper(1.0, 2048, SCENARIO),
        data.trace,
    );
    if traced {
        sn.net_mut().set_telemetry(traced_telemetry());
    }
    let network = step(&mut speed, t);
    // One tick at a time, which is what `train(0, train_until)` does,
    // so that the host's speed is read between ticks.
    let mut train = 0;
    for tick in 0..d.train_until {
        let t = now_ns();
        sn.train(tick, tick + 1);
        train += step(&mut speed, t);
    }
    sn.set_time(d.elect_at);
    let train_sent = sn.stats().total_sent();
    sn.net_mut().stats_mut().reset();
    let t = now_ns();
    let outcome = sn.elect();
    let elect = step(&mut speed, t);

    let max_msgs = sn.stats().max_sent_per_node();
    if d.p_loss == 0.0 && max_msgs > 6 {
        return Err(format!(
            "oracle: a lossless election sent {max_msgs} messages from one node (bound 6)"
        ));
    }
    Ok(Deployment {
        sn,
        setup_ns: datagen + topology + network + train + elect,
        setup_ref_ns,
        speed,
        train_sent,
        layers: [
            ("datagen.ms", datagen),
            ("netsim.topology_ms", topology),
            ("core.train_ms", train),
            ("core.elect_ms", elect),
        ],
        max_msgs,
        snapshot_frac: outcome.snapshot_size as f64 / d.n as f64,
    })
}

impl Deployment {
    /// Charge what the set-up did to round `r`, hand it the reader of
    /// the host's speed, and return the network.
    pub fn charge(self, r: &mut Round) -> SensorNetwork {
        r.phase("setup", self.setup_ns);
        r.phase("speed", self.speed.spent_ns());
        r.setup_ref_ns = self.setup_ref_ns;
        r.speed = Some(self.speed);
        for (name, ns) in self.layers {
            r.busy(name, ns);
        }
        r.set("core.elect.max_msgs_per_node", self.max_msgs as f64);
        r.set("core.snapshot_frac", self.snapshot_frac);
        r.msgs_sent += self.train_sent;
        r.oracle_checks += 1;
        r.nodes = self.sn.net().topology().len();
        self.sn
    }
}

/// Fold the network's final counters into the round.
fn finish(sn: &SensorNetwork, r: &mut Round) {
    let stats = sn.stats();
    r.msgs_sent += stats.total_sent();
    r.set("netsim.msgs_sent", stats.total_sent() as f64);
    r.set("netsim.msgs_lost", stats.total_lost() as f64);
    r.set("netsim.woken_per_tick", stats.mean_woken_per_tick());
    r.absorb(sn);
}

/// The [`ServeConfig`] every serving workload uses.
fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        fair_share: 32,
        ..ServeConfig::default()
    }
}

/// A query service under open-loop load. It remembers each ticket's
/// text and the segment each simulated tick was served in, so a
/// query's latency runs from the start of the tick it was offered in to
/// the end of the tick that served its first epoch.
struct Server {
    svc: QueryService,
    catalog: RegionCatalog,
    texts: BTreeMap<u64, String>,
    segments: BTreeMap<u64, usize>,
    queries: Vec<(usize, usize)>,
    plan_ns: Cell<u64>,
    plans: Cell<u64>,
}

impl Server {
    fn new(svc: QueryService) -> Self {
        Server {
            svc,
            catalog: RegionCatalog::with_quadrants(),
            texts: BTreeMap::new(),
            segments: BTreeMap::new(),
            queries: Vec::new(),
            plan_ns: Cell::new(0),
            plans: Cell::new(0),
        }
    }

    /// One serving tick, timed as one segment: offer `arrivals` (a
    /// rejected submission fails and is not retried), tick with the
    /// serial planner, take the completions. Returns them with their
    /// texts.
    fn tick(
        &mut self,
        sn: &mut SensorNetwork,
        arrivals: Vec<(u32, String)>,
        r: &mut Round,
    ) -> Vec<(Completion, String)> {
        let start = now_ns();
        for (tenant, sql) in arrivals {
            r.attempted += 1;
            match self.svc.submit(sn, tenant, &sql) {
                Ok(ticket) => {
                    self.texts.insert(ticket, sql);
                }
                Err(_) => r.failed += 1,
            }
        }
        let (catalog, plan_ns, plans) = (&self.catalog, &self.plan_ns, &self.plans);
        self.svc.tick_with(sn, |texts| {
            let t = now_ns();
            let out = texts.iter().map(|s| plan_text(s, catalog)).collect();
            plan_ns.set(plan_ns.get() + now_ns() - t);
            plans.set(plans.get() + texts.len() as u64);
            out
        });
        let done = self.svc.take_completions();
        let segment = r.segment("serve", now_ns() - start);

        self.segments.insert(sn.now() as u64, segment);
        r.max("query.serve.queue_max", self.svc.queued() as f64);
        r.max("query.serve.in_flight_max", self.svc.in_flight() as f64);
        let mut out = Vec::with_capacity(done.len());
        for c in done {
            r.answers.push((c.ticket, c.value.map(f64::to_bits)));
            let segment = |t: u64| self.segments.get(&t).copied();
            if c.error.is_some() {
                r.failed += 1;
            } else if let (Some(offered), Some(served)) =
                (segment(c.submitted_at), c.first_result_at.and_then(segment))
            {
                // A restarted service has no segments for ticks before
                // the restart; those completions carry no latency.
                self.queries.push((offered, served));
            }
            let sql = self.texts.remove(&c.ticket).unwrap_or_default();
            out.push((c, sql));
        }
        out
    }

    /// Fold the serving layer's counters into the round.
    fn finish(&self, r: &mut Round) {
        let stats = self.svc.stats();
        r.busy("query.plan_ms_total", self.plan_ns.get());
        r.add("query.plans", self.plans.get() as f64);
        r.set("query.serve.hit_rate", stats.hit_rate().unwrap_or(0.0));
        r.set(
            "query.serve.scans_per_epoch",
            stats.scans as f64 / stats.epochs_served.max(1) as f64,
        );
        r.add("query.serve.rejected", stats.rejected as f64);
        r.set("query.serve.cached_plans", self.svc.cached_plans() as f64);
    }
}

/// `(value, ground truth)` of `query` on the network's current state,
/// from the pure core executor (no energy, no messages).
fn frozen(sn: &SensorNetwork, query: &SnapshotQuery) -> (Option<f64>, Option<f64>) {
    let values = sn.values();
    let (res, _) = execute_frozen(
        sn.net().topology(),
        |id| sn.net().is_alive(id),
        sn.nodes(),
        &values,
        query,
        SINK,
    );
    (res.value, res.ground_truth)
}

/// The ground truth of an aggregate `query`: the aggregate over every
/// target's true value that passes the value filter.
fn ground_truth(sn: &SensorNetwork, values: &[f64], query: &SnapshotQuery) -> Option<f64> {
    let passes = |v: &f64| query.value_filter.is_none_or(|f| f.matches(*v));
    let targets = query.predicate.targets(sn.net().topology());
    query
        .aggregate?
        .apply(targets.iter().map(|t| values[t.index()]).filter(passes))
}

/// The oracle on live answers. The tick's first AVG/SUM answer is
/// re-executed with the core executor on the same state and must be
/// bit-equal; every AVG/SUM answer's error against the ground truth is
/// recorded.
fn check_served(sn: &SensorNetwork, done: &[(Completion, String)], r: &mut Round) -> Res<()> {
    let start = now_ns();
    let catalog = RegionCatalog::with_quadrants();
    let values = sn.values();
    // Ground truth by text; `None` for texts that are not live AVG/SUM.
    let mut truths: BTreeMap<&str, Option<Option<f64>>> = BTreeMap::new();
    let mut bit_checked = false;
    for (c, sql) in done {
        let Some(value) = c.value else { continue };
        let truth = match truths.get(sql.as_str()) {
            Some(&t) => t,
            None => {
                let plan = plan_text(sql, &catalog).map_err(|e| format!("oracle: `{sql}`: {e}"))?;
                let live_avg_sum = plan.history.is_none()
                    && matches!(plan.query.aggregate, Some(Aggregate::Avg | Aggregate::Sum));
                if live_avg_sum && !bit_checked {
                    let (expected, _) = frozen(sn, &plan.query);
                    if expected.map(f64::to_bits) != Some(value.to_bits()) {
                        return Err(format!(
                            "oracle: ticket {} `{sql}` was served {value}, the core executor answers {expected:?}",
                            c.ticket
                        ));
                    }
                    r.oracle_checks += 1;
                    bit_checked = true;
                }
                let t = live_avg_sum.then(|| ground_truth(sn, &values, &plan.query));
                truths.insert(sql, t);
                t
            }
        };
        if let Some(g) = truth {
            r.answer(value, g);
        }
    }
    r.phase("oracle", now_ns() - start);
    Ok(())
}

/// Generate one tick's arrivals, timed as workload generation.
fn arrivals(
    r: &mut Round,
    next: &mut usize,
    count: usize,
    generate: impl Fn(usize) -> (u32, String),
) -> Vec<(u32, String)> {
    let start = now_ns();
    let out = (*next..*next + count).map(generate).collect();
    *next += count;
    r.phase("workload", now_ns() - start);
    out
}

/// Run the measured phase of `workload` on the set-up network `sn`.
/// `check` runs the oracles on live answers; whether or not it is set,
/// the answers go to `r.answers` for comparison between rounds.
/// `scratch` is where history keeps its store file.
pub fn measure(
    workload: &str,
    sn: SensorNetwork,
    seed: u64,
    quick: bool,
    check: bool,
    scratch: &Path,
    r: &mut Round,
) -> Res<()> {
    match workload {
        "serve-shared" => {
            let (per_tick, ticks) = if quick { (40, 20) } else { (200, 100) };
            serve(r, sn, check, per_tick, ticks, |i| shared_query(seed, i))
        }
        "serve-unique" => {
            let ticks = if quick { 20 } else { 80 };
            serve(r, sn, check, 8, ticks, |i| unique_query(seed, i))
        }
        "deploy-churn" => churn(r, sn, seed, check, if quick { 4 } else { 8 }),
        "history" => {
            let dir = ScratchDir::new(scratch, workload, seed)
                .map_err(|e| format!("scratch dir: {e}"))?;
            let (ticks, time_travel) = if quick { (20, 14) } else { (60, 210) };
            history(r, sn, seed, check, dir.path(), ticks, time_travel)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// serve-shared and serve-unique: `ticks` ticks of `per_tick` arrivals
/// each, then serve until idle.
fn serve(
    r: &mut Round,
    mut sn: SensorNetwork,
    check: bool,
    per_tick: usize,
    ticks: usize,
    generate: impl Fn(usize) -> (u32, String),
) -> Res<()> {
    let mut server = Server::new(QueryService::new(
        serve_config(),
        RegionCatalog::with_quadrants(),
    ));
    let mut next = 0;
    let mut tick = 0;
    while tick < ticks || !server.svc.idle() {
        let count = if tick < ticks { per_tick } else { 0 };
        let offered = arrivals(r, &mut next, count, &generate);
        let done = server.tick(&mut sn, offered, r);
        if check {
            check_served(&sn, &done, r)?;
        }
        sn.advance(1);
        tick += 1;
        if tick > ticks + 64 {
            return Err("the service failed to drain".into());
        }
    }
    r.queries = std::mem::take(&mut server.queries);
    server.finish(r);
    finish(&sn, r);
    Ok(())
}

/// deploy-churn: `cycles` maintenance cycles on a lossy deployment;
/// every 4th kills 0.5 % of the representatives first, and every cycle
/// ends with the probe queries.
fn churn(r: &mut Round, mut sn: SensorNetwork, seed: u64, check: bool, cycles: usize) -> Res<()> {
    let catalog = RegionCatalog::with_quadrants();
    let mut probes: Vec<SnapshotQuery> = Vec::new();
    for agg in PROBE_AGGREGATES {
        for region in PROBE_REGIONS {
            for mode in [" USE SNAPSHOT", ""] {
                let sql = format!("SELECT {agg}(value) FROM sensors{region}{mode}");
                let plan = plan_text(&sql, &catalog).map_err(|e| format!("probe: {e}"))?;
                probes.push(plan.query);
            }
        }
    }

    for cycle in 0..cycles {
        let t0 = now_ns();
        sn.advance(1);
        if cycle % 4 == 0 {
            let snap = sn.snapshot();
            let reps: Vec<NodeId> = snap
                .representatives()
                .into_iter()
                .filter(|&id| sn.net().is_alive(id) && !snap.members_of(id).is_empty())
                .collect();
            for rep in kill_picks(cycle, &reps) {
                sn.kill_representative(rep);
            }
        }
        let t1 = now_ns();
        let _ = sn.maintain();
        let t2 = now_ns();
        r.segment("churn", t2 - t0);
        r.busy("core.maintain_ms_total", t2 - t1);
        for i in probe_order(seed, cycle, probes.len()) {
            let q = &probes[i];
            r.attempted += 1;
            let p0 = now_ns();
            let got = sn.try_query(q, SINK);
            let segment = r.segment("probe", now_ns() - p0);
            let Ok(res) = got else {
                r.failed += 1;
                continue;
            };
            r.queries.push((segment, segment));
            r.answers.push((i as u64, res.value.map(f64::to_bits)));
            if !check {
                continue;
            }
            let o = now_ns();
            if let (Some(v), Some(Aggregate::Avg | Aggregate::Sum)) = (res.value, q.aggregate) {
                r.answer(v, res.ground_truth);
            }
            // The field-wide snapshot and regular AVG probes go to the
            // oracle.
            if i < 2 {
                let (expected, _) = frozen(&sn, q);
                if expected.map(f64::to_bits) != res.value.map(f64::to_bits) {
                    return Err(format!(
                        "oracle: probe {i} of cycle {cycle} answered {:?}, the core executor {expected:?}",
                        res.value
                    ));
                }
                r.oracle_checks += 1;
            }
            r.phase("oracle", now_ns() - o);
        }
    }
    if sn.repair().in_repair() {
        return Err(format!(
            "oracle: deploy-churn ended with {} orphans still unrepaired",
            sn.repair().outstanding().len()
        ));
    }
    r.oracle_checks += 1;
    let repair_ticks: Vec<f64> = sn
        .repair()
        .records()
        .iter()
        .map(|rec| rec.time_to_repair() as f64)
        .collect();
    r.set(
        "core.repair_ticks_p50",
        crate::measure::median(&repair_ticks),
    );
    finish(&sn, r);
    Ok(())
}

/// history: (A) `ticks` ticks of the shared mix with a checkpoint and a
/// serve-state record every `CADENCE` ticks, (B) `RESTARTS` restarts
/// from the store file, (C) `time_travel` ticks of one time-travel
/// query each.
fn history(
    r: &mut Round,
    mut sn: SensorNetwork,
    seed: u64,
    check: bool,
    dir: &Path,
    ticks: usize,
    time_travel: usize,
) -> Res<()> {
    const CADENCE: usize = 5;
    const PER_TICK: usize = 50;
    const RESTARTS: usize = 3;
    let traced = sn.net().telemetry().registry().is_some();
    let clone_start = now_ns();
    let mut pristine = sn.clone();
    pristine.net_mut().set_telemetry(Telemetry::off());
    r.phase("clone", now_ns() - clone_start);
    let catalog = RegionCatalog::with_quadrants();
    let live_plans: Vec<SnapshotQuery> = TIME_TRAVEL
        .iter()
        .map(|(head, tail)| plan_text(&format!("{head} {tail}"), &catalog).map(|p| p.query))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("time-travel template: {e}"))?;

    // Phase A.
    let path = dir.join("history.store");
    let mut store = SnapshotStore::create(&path).map_err(|e| format!("store: {e}"))?;
    let mut server = Server::new(QueryService::new(serve_config(), catalog.clone()));
    let mut captures: Vec<u64> = Vec::new();
    // Every time-travel template's live answer at each capture.
    let mut live: Vec<Vec<(Option<f64>, Option<f64>)>> = Vec::new();
    let mut next = 0;
    for tick in 0..ticks {
        let offered = arrivals(r, &mut next, PER_TICK, |i| shared_query(seed, i));
        let done = server.tick(&mut sn, offered, r);
        if check {
            check_served(&sn, &done, r)?;
        }
        if (tick + 1) % CADENCE == 0 {
            let t0 = now_ns();
            let cp = sn.checkpoint();
            let t1 = now_ns();
            let version = store
                .append_checkpoint(&cp)
                .map_err(|e| format!("append: {e}"))?;
            store
                .append_serve_state(&server.svc.snapshot_state(version))
                .map_err(|e| format!("append serve state: {e}"))?;
            let t2 = now_ns();
            r.segment("capture", t2 - t0);
            r.busy("core.checkpoint_extract_ms", t1 - t0);
            r.busy("store.append_ms", t2 - t1);
            captures.push(cp.tick);
            if check {
                let o = now_ns();
                live.push(live_plans.iter().map(|q| frozen(&sn, q)).collect());
                r.phase("oracle", now_ns() - o);
            }
        }
        sn.advance(1);
    }
    drop(store);
    // The tick after the last capture, with no new arrivals: what
    // every restart must reproduce.
    let reference: Vec<Completion> = server
        .tick(&mut sn, Vec::new(), r)
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    sn.advance(1);
    server.finish(r);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("store size: {e}"))?
        .len() as f64;
    let n_captures = captures.len().max(1) as f64;
    r.set("store.appends", 2.0 * captures.len() as f64);
    r.set("store.bytes_per_checkpoint", bytes / n_captures);
    r.set(
        "store.bytes_per_node",
        bytes / (n_captures * sn.net().topology().len() as f64),
    );

    // Phase B.
    let mut reopened = None;
    for _ in 0..RESTARTS {
        let c0 = now_ns();
        let mut sn2 = pristine.clone();
        if traced {
            sn2.net_mut().set_telemetry(traced_telemetry());
        }
        let t0 = now_ns();
        r.phase("clone", t0 - c0);
        let store2 = SnapshotStore::open(&path).map_err(|e| format!("open: {e}"))?;
        let t1 = now_ns();
        let (_, cp) = store2
            .latest_checkpoint()
            .map_err(|e| format!("decode: {e}"))?
            .ok_or("the store holds no checkpoint")?;
        let (_, rec) = store2
            .latest_serve_state()
            .map_err(|e| format!("decode: {e}"))?
            .ok_or("the store holds no serve state")?;
        let t2 = now_ns();
        sn2.restore_checkpoint(&cp)
            .map_err(|e| format!("restore: {e}"))?;
        let t3 = now_ns();
        let svc = QueryService::recover(serve_config(), catalog.clone(), &mut sn2, &rec)
            .map_err(|e| format!("recover: {e}"))?;
        let t4 = now_ns();
        r.segment("restart", t4 - t0);
        r.busy("store.open_ms", t1 - t0);
        r.busy("store.decode_ms", t2 - t1);
        r.busy("core.restore_ms", t3 - t2);
        r.busy("query.serve.recover_ms", t4 - t3);
        let mut restarted = Server::new(svc);
        sn2.advance(1);
        let first: Vec<Completion> = restarted
            .tick(&mut sn2, Vec::new(), r)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        if first != reference {
            return Err(format!(
                "oracle: a restart's first tick completed {} queries where the original completed {}, or their answers differ",
                first.len(),
                reference.len()
            ));
        }
        r.oracle_checks += 1;
        r.msgs_sent += sn2.stats().total_sent() - pristine.stats().total_sent();
        r.absorb(&sn2);
        reopened = Some(store2);
    }

    // Phase C.
    let mut svc = QueryService::new(serve_config(), catalog);
    if let Some(store) = reopened {
        svc.attach_store(store);
    }
    let mut server = Server::new(svc);
    for q in 0..time_travel {
        let g = now_ns();
        let (tenant, sql, template, at) = time_travel_query(seed, q, &captures);
        r.phase("workload", now_ns() - g);
        let done = server.tick(&mut sn, vec![(tenant, sql)], r);
        sn.advance(1);
        if !check {
            continue;
        }
        let o = now_ns();
        let [(c, sql)] = done.as_slice() else {
            return Err(format!(
                "oracle: a time-travel tick completed {} queries, not 1",
                done.len()
            ));
        };
        let (value, truth) = live[at][template];
        let epochs = if sql.contains("BETWEEN") { 4 } else { 1 };
        if c.value.map(f64::to_bits) != value.map(f64::to_bits) || c.epochs != epochs {
            return Err(format!(
                "oracle: `{sql}` answered {:?} over {} epochs; the live answer at capture time was {value:?}",
                c.value, c.epochs
            ));
        }
        r.oracle_checks += 1;
        if let Some(v) = c.value {
            r.answer(v, truth);
        }
        r.phase("oracle", now_ns() - o);
    }
    r.queries = std::mem::take(&mut server.queries);
    finish(&sn, r);
    Ok(())
}
