//! The benchmark's one table: its command, workloads and metrics.
//!
//! `e2e --list` prints it in the form of `BENCHMARK.json`, and a test
//! compares that rendering with the committed file byte for byte, so
//! the two cannot drift apart.

/// Whether a smaller or a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and why the benchmark runs it.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics have none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How to run the benchmark from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "e2e/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: &[&str] = &["e2e"];

/// Seconds one run measures for (`--seconds`' default).
pub const RUN_SECONDS: u64 = 30;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-shared",
        why: "repeated texts from 8 tenants: the plan cache hits and ~50 query-epochs share each scan, so admission and batching do most of the work",
    },
    Workload {
        name: "serve-unique",
        why: "every query text distinct: the plan cache never hits and each query-epoch pays its own scan, so the core executor dominates",
    },
    Workload {
        name: "deploy-churn",
        why: "a 10k-node lossy deployment losing representatives: delivery, election and maintenance do the work while serving and the store stay idle",
    },
    Workload {
        name: "history",
        why: "live serving with periodic checkpoints, restarts and AS OF/BETWEEN queries: the only workload that writes and reads the snapshot store",
    },
];

/// The end-to-end metrics. Times, at reference speed, get the largest
/// bound: converting them to reference speed takes out most of the
/// host's changes of speed, but not all, as the program and the
/// reference work do not slow down by exactly the same factor. The
/// deterministic metrics are exact for one seed; between seeds their
/// quartiles lie at most 1.5 % (`msgs_per_node`) and 5 % (`answer_err`)
/// apart.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("query_ms_p50", "ms", 0.25),
    e2e("query_ms_p95", "ms", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
    e2e("msgs_per_node", "msgs", 0.05),
    e2e("answer_err", "fraction", 0.15),
];

/// Per-layer metrics of the fastest traced round: the time each layer
/// was busy over the whole round (`*_ms`), the work it did, and the
/// harness's own accounting. Times and counts of a layer a workload
/// does not use are 0.
pub const PER_LAYER: &[Metric] = &[
    layer("round_ms", "ms", Lower),
    layer("datagen.ms", "ms", Lower),
    layer("netsim.topology_ms", "ms", Lower),
    layer("netsim.deliver_ms", "ms", Lower),
    layer("netsim.deliver_rounds", "count", Lower),
    layer("netsim.msgs_sent", "msgs", Lower),
    layer("netsim.msgs_lost", "msgs", Lower),
    layer("netsim.woken_per_tick", "nodes", Lower),
    layer("core.train_ms", "ms", Lower),
    layer("core.elect_ms", "ms", Lower),
    layer("core.elect.invite_ms", "ms", Lower),
    layer("core.elect.candidates_ms", "ms", Lower),
    layer("core.elect.accept_ms", "ms", Lower),
    layer("core.elect.refine_ms", "ms", Lower),
    layer("core.elect.max_msgs_per_node", "msgs", Lower),
    layer("core.snapshot_frac", "fraction", Lower),
    layer("core.maintain_ms_total", "ms", Lower),
    layer("core.repair_ticks_p50", "ticks", Lower),
    layer("core.query_ms_mean", "ms", Lower),
    layer("core.scans", "count", Lower),
    layer("query.plan_ms_total", "ms", Lower),
    layer("query.plans", "count", Lower),
    layer("query.serve.tick_ms_p50", "ms", Lower),
    layer("query.serve.tick_ms_p99", "ms", Lower),
    layer("query.serve.admit_ms", "ms", Lower),
    layer("query.serve.batch_ms", "ms", Lower),
    layer("query.serve.hit_rate", "fraction", Higher),
    layer("query.serve.scans_per_epoch", "fraction", Lower),
    layer("query.serve.rejected", "count", Lower),
    layer("query.serve.queue_max", "count", Lower),
    layer("query.serve.in_flight_max", "count", Lower),
    layer("query.serve.cached_plans", "count", Lower),
    layer("query.serve.recover_ms", "ms", Lower),
    layer("core.checkpoint_extract_ms", "ms", Lower),
    layer("store.append_ms", "ms", Lower),
    layer("store.appends", "count", Lower),
    layer("store.bytes_per_checkpoint", "bytes", Lower),
    layer("store.bytes_per_node", "bytes", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.decode_ms", "ms", Lower),
    layer("core.restore_ms", "ms", Lower),
    layer("oracle.ms", "ms", Lower),
    layer("oracle.checks", "count", Higher),
    layer("trace.overhead_frac", "fraction", Lower),
    layer("trace.unattributed_frac", "fraction", Lower),
    layer("host.slowdown", "ratio", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The table as `BENCHMARK.json`, exactly as it is committed at the
/// repository root.
pub fn benchmark_json() -> String {
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let metric = |m: &Metric| match m.bound {
        Some(b) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
            m.name,
            m.unit,
            m.better.as_str()
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        ),
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        quoted(PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
