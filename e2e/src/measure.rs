//! What one round of a workload measures, and the helpers that take
//! the measurements: the wall clock, percentiles, peak memory, the
//! traced-run telemetry hub and the scratch directory guard.

use crate::speed::Speed;
use snapshot_core::SensorNetwork;
use snapshot_telemetry::{MetricsRegistry, Telemetry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Nanoseconds on the workspace's sanctioned monotonic clock.
pub fn now_ns() -> u64 {
    snapshot_bench::wall_clock_ns()
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile of `xs` (sorted here); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The hub a traced round installs on every network it builds: the
/// metrics registry only, with wall-clock span stamps.
pub fn traced_telemetry() -> Telemetry {
    let mut t = Telemetry::with_registry();
    t.set_wall_clock(snapshot_bench::wall_clock_ns);
    t
}

/// One timed step of a round's measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// The top-level phase it belongs to.
    pub name: &'static str,
    pub wall_ns: u64,
    /// Its time at reference speed (see [`crate::speed`]), ns.
    pub ref_ns: u64,
}

/// Everything one round measured.
///
/// The measured phase is cut into segments — a serving tick, a
/// maintenance cycle, a probe, a capture, a restart — in the same
/// order in every round of one seed, so segment `i` of every round is
/// the same work. A query's latency is the run of segments from the
/// one it was offered in to the one that served it.
#[derive(Default)]
pub struct Round {
    /// Wall time of the whole round, set-up included when it had one.
    pub wall_ns: u64,
    /// The set-up's time at reference speed, ns.
    pub setup_ref_ns: u64,
    /// Reads the host's speed after each segment; the set-up's reader
    /// carries on into the measured phase.
    pub speed: Option<Speed>,
    /// The measured phase's segments, in order.
    pub segments: Vec<Segment>,
    /// Each answered query's first and last segment, inclusive.
    pub queries: Vec<(usize, usize)>,
    /// Every answer the round produced, as (ticket or probe index,
    /// value bits): equal in every round of one seed.
    pub answers: Vec<(u64, Option<u64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Messages sent over the deployment's life: training, election
    /// and the measured phase.
    pub msgs_sent: u64,
    pub nodes: usize,
    /// |v − g| / |g| of every checked AVG/SUM answer with g ≠ 0; only
    /// rounds that run the oracles fill it.
    pub errors: Vec<f64>,
    pub oracle_checks: u64,
    /// Top-level phase timers, ns; their sum against `wall_ns` is the
    /// attribution check.
    pub phases: BTreeMap<&'static str, u64>,
    /// Time, ns, that layers timed around the benchmark's own calls
    /// were busy, keyed by the metric it is reported as.
    pub busy: BTreeMap<&'static str, u64>,
    /// Per-layer counts and ratios.
    pub layers: BTreeMap<&'static str, f64>,
    /// Span counters from every traced network of the round.
    pub registry: Option<MetricsRegistry>,
}

impl Round {
    pub fn phase(&mut self, name: &'static str, ns: u64) {
        *self.phases.entry(name).or_insert(0) += ns;
    }

    /// Record one segment of the measured phase under the top-level
    /// phase `name`, converting it to reference speed; returns its
    /// index. Call it as soon as the segment ends.
    pub fn segment(&mut self, name: &'static str, wall_ns: u64) -> usize {
        let speed = self.speed.get_or_insert_with(Speed::new);
        let spent = speed.spent_ns();
        let ref_ns = speed.scale(wall_ns);
        let reading = speed.spent_ns() - spent;
        self.phase(name, wall_ns);
        self.phase("speed", reading);
        self.segments.push(Segment {
            name,
            wall_ns,
            ref_ns,
        });
        self.segments.len() - 1
    }

    /// The round's set-up and measured phase at reference speed, ns.
    pub fn ref_ns(&self) -> u64 {
        self.setup_ref_ns + self.segments.iter().map(|s| s.ref_ns).sum::<u64>()
    }

    pub fn busy(&mut self, name: &'static str, ns: u64) {
        *self.busy.entry(name).or_insert(0) += ns;
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.layers.insert(name, v);
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.layers.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// Fold a traced network's span counters into the round's.
    pub fn absorb(&mut self, sn: &SensorNetwork) {
        if let Some(reg) = sn.net().telemetry().registry() {
            self.registry
                .get_or_insert_with(MetricsRegistry::new)
                .merge(reg);
        }
    }

    /// Record a checked aggregate answer's error against the ground
    /// truth.
    pub fn answer(&mut self, value: f64, truth: Option<f64>) {
        if let Some(g) = truth.filter(|g| *g != 0.0) {
            self.errors.push((value - g).abs() / g.abs());
        }
    }

    pub fn msgs_per_node(&self) -> f64 {
        self.msgs_sent as f64 / self.nodes.max(1) as f64
    }

    /// The mean relative error of the checked answers.
    pub fn answer_err(&self) -> f64 {
        self.errors.iter().sum::<f64>() / self.errors.len().max(1) as f64
    }

    /// A registry counter summed over the round's traced networks:
    /// `span_<kind>` counts closed spans, `span_wall_ns_<kind>` sums
    /// their wall time.
    pub fn counter(&self, label: &str) -> u64 {
        self.registry.as_ref().map_or(0, |r| r.counter(label))
    }
}

/// Check that two rounds of one seed did the same work and gave the
/// same answers: every deterministic result must agree exactly.
pub fn same_work(a: &Round, b: &Round, what: &str) -> Result<(), String> {
    let differs = |name: &str| {
        Err(format!(
            "oracle: {name} differs between one round and {what}"
        ))
    };
    if a.answers != b.answers {
        return differs("an answer");
    }
    let phases = |r: &Round| r.segments.iter().map(|s| s.name).collect::<Vec<_>>();
    if phases(a) != phases(b) || a.queries != b.queries {
        return differs("the sequence of timed segments");
    }
    if (a.attempted, a.failed, a.msgs_sent) != (b.attempted, b.failed, b.msgs_sent) {
        return differs("the attempted, failed or message count");
    }
    if a.layers != b.layers {
        return differs("a per-layer count");
    }
    if !a.errors.is_empty() && !b.errors.is_empty() && a.errors != b.errors {
        return differs("answer_err");
    }
    Ok(())
}

/// The median over `rounds`, which all did the same work, of each
/// segment's time as `time` reads it, ns.
pub fn median_segments(rounds: &[Round], time: impl Fn(&Segment) -> u64) -> Vec<u64> {
    let count = rounds.first().map_or(0, |r| r.segments.len());
    (0..count)
        .map(|i| {
            let xs: Vec<f64> = rounds.iter().map(|r| time(&r.segments[i]) as f64).collect();
            median(&xs) as u64
        })
        .collect()
}

/// Each query's latency, ns: the sum of `segments` over its run.
pub fn latencies(segments: &[u64], queries: &[(usize, usize)]) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(segments.len() + 1);
    prefix.push(0u64);
    for &ns in segments {
        prefix.push(prefix[prefix.len() - 1] + ns);
    }
    queries
        .iter()
        .map(|&(first, last)| prefix[last + 1] - prefix[first])
        .collect()
}

/// A scratch directory unique to (process, workload, seed), removed
/// with everything in it when dropped — also when an oracle fails or
/// a panic unwinds. Its parent is removed too once empty.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(base: &Path, workload: &str, seed: u64) -> std::io::Result<Self> {
        let path = base.join(format!("{}-{workload}-{seed}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
