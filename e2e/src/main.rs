//! # e2e — the end-to-end wall-clock benchmark
//!
//! One command measures the snapshot-queries pipeline in wall time,
//! checks the answers it measures, and prints every metric by name with
//! its unit. It drives only the public APIs of `snapshot-datagen`,
//! `-netsim`, `-core`, `-query`, `-store` and `-telemetry`: it builds
//! each deployment itself (`random_walk` → `Topology::random_uniform` →
//! `SensorNetwork::new` → `train` → `elect`) and carries its own copy of
//! the serve templates, so edits to the experiment harness cannot
//! change what it measures. Wall time comes from
//! `snapshot_bench::wall_clock_ns`.
//!
//! ## Running it
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload <serve-shared|serve-unique|deploy-churn|history|all> \
//!     --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! cargo run --release --manifest-path e2e/Cargo.toml -- --list
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `failed` counts rejected
//! submissions, completions that carry an error and probe
//! `CoreError`s; nothing is retried. An oracle violation exits
//! non-zero and prints no metrics. `--workload all` runs each workload
//! in a child process of its own, one after another, so peak memory
//! and set-up are per workload. Every process is single-threaded:
//! serving uses `QueryService::tick_with` with a serial planner, never
//! a thread pool. `--quick` shrinks every workload to test size, and
//! `--list` prints the workload and metric table as `BENCHMARK.json`.
//!
//! ## How a run measures
//!
//! A run repeats rounds — the deployment's set-up and the workload's
//! measured phase on it — until `--seconds` (default 30) are used, and
//! makes at least three. Every round does the same work: the first runs
//! the oracles, and every later one must give bit-identical answers and
//! counts.
//!
//! The set-up is timed step by step (datagen, topology, network, each
//! training tick, the election) and the measured phase is cut into
//! segments — a serving tick, a maintenance cycle, a probe, a capture,
//! a restart. Every time the benchmark reports is **at reference
//! speed** (`speed.rs`). The shared host measured below runs the same
//! code at speeds up to 1.6 times apart, switching between stretches of
//! seconds to minutes, so a run that falls wholly into a slow stretch
//! would read 1.6 times slower with no change to the program. Right
//! after each step and segment the benchmark times a fixed piece of
//! reference work — sorting, a breadth-first walk of a fixed graph,
//! formatting and parsing numbers — that no change to the repository
//! can alter, and scales the step's wall time by the reference work's
//! time at reference speed (100 µs) over the mean of its readings
//! before and after the step. `setup_s` is the median over the rounds
//! of the set-up's scaled steps; each segment's time is the median of
//! its scaled repetitions, and latencies and `run_s` add those up. On
//! the machine measured below the reference work takes about 100 µs
//! in the host's fast stretches, so the times read there as wall time
//! at its fast speed. The wall-time equivalents and how much slower
//! than reference speed the host ran go to standard error.
//!
//! `--trace 1` runs pairs of full rounds, set-up included, one
//! untraced and one traced, until `--seconds` are used, and prints the
//! per-layer metrics of the fastest traced round. The traced round
//! installs `Telemetry::with_registry()` with the wall clock on every
//! network it builds, so the library needs no tracing code of its own.
//! The layer tree goes to standard error. The run fails when a
//! deterministic result — answers, messages, attempted and failed
//! counts, `answer_err`, store bytes — differs between the two rounds
//! of a pair, or when more than 5 % of the round's wall time falls
//! outside the benchmark's top-level phase timers
//! (`trace.unattributed_frac`). Per-layer times are wall time;
//! `host.slowdown` gives the traced round's median reading of the
//! reference work over its time at reference speed, and
//! `trace.overhead_frac` the median over the pairs of how much longer
//! the traced round took than its untraced pair, both at reference
//! speed.
//!
//! ## End-to-end metrics
//!
//! Every workload reports all seven:
//!
//! * `setup_s` — datagen, topology, `SensorNetwork::new`, training and
//!   the first `elect()`: the time until the first query can be
//!   answered.
//! * `query_ms_p50`, `query_ms_p95` — query latency. The serving
//!   workloads are an open loop in simulated time: each tick's arrivals
//!   come from a fixed seeded schedule that does not slow down when the
//!   service does, and a query's latency runs from the start of the
//!   tick it was offered in to the end of the tick that served its
//!   first epoch. On deploy-churn it is one probe's `try_query`; on
//!   history, the tick of one time-travel query. Every workload has at
//!   least 210 timed queries, so p95 has more than ten beyond it.
//! * `run_s` — the measured phase after set-up, oracles excluded:
//!   serving until idle, the maintenance cycles and probes, or capture,
//!   restarts and time travel. Its work is fixed, so it stands for
//!   throughput.
//! * `peak_rss_mb` — `VmHWM` of the process.
//! * `msgs_per_node` — `NetStats::total_sent` ÷ N over the deployment's
//!   life: training, election and the measured phase (the paper's
//!   energy cost).
//! * `answer_err` — the mean of |v − g|/|g| over the AVG and SUM
//!   answers with ground truth g ≠ 0: every live one on the serving
//!   workloads, every probe on deploy-churn, every time-travel answer
//!   on history.
//!
//! Ticks and msgs/node remain the paper's cost metrics. They count
//! simulated work; they are not speed.
//!
//! ## Workloads
//!
//! A workload's deployment — node layout, sensor trace, the protocol's
//! random choices and link losses, and which representatives die —
//! comes from a fixed scenario seed, so every run measures the same
//! system. `--seed` generates the queries it is given: the arrival
//! schedule, the value-filter constants, the order of the probes and
//! the captures time travel visits.
//!
//! * **serve-shared** — N = 5000 at range 0.05 (mean degree ≈ 38),
//!   K = 10, lossless. 200 arrivals per tick for 100 ticks from the
//!   12-template mix, 8 tenants, queue capacity 256 and fair share 32.
//!   Nearly every lookup hits the plan cache and about 50 query-epochs
//!   share each scan, so admission, folding and batching in
//!   `query::serve` carry the load.
//! * **serve-unique** — the same deployment. 8 arrivals per tick for 80
//!   ticks, every text distinct: a seeded value-filter constant, the
//!   whole field or one of two quadrants, one of five aggregates, ¼ in
//!   regular mode, ⅛ `SAMPLE INTERVAL 2s FOR 6s`. The plan cache never
//!   hits and every query-epoch is its own scan, so the core executor,
//!   which builds an aggregation tree per query, dominates.
//! * **deploy-churn** — N = 10 000 at the connectivity range (mean
//!   degree ≈ 18), K = 10, i.i.d. loss 0.05. 8 cycles of `advance(1)`
//!   and `maintain()`; every 4th first kills 0.5 % of the
//!   representatives; every cycle ends with 32 probes (AVG, SUM, MIN and
//!   MAX over the field and three quadrants, in snapshot and regular
//!   mode) through `try_query`, in a seeded order.
//!   Delivery, elections and maintenance do nearly all the work; the
//!   serving layer and the store are idle.
//! * **history** — N = 500 at range 0.1, K = 5, lossless. (A) 60 ticks
//!   of the shared mix at 50 arrivals per tick, with a checkpoint and a
//!   serve-state record every 5 ticks in a scratch store unique to the
//!   process, workload and seed; (B) 3 restarts, each `open`, latest
//!   checkpoint and serve state, `restore_checkpoint` onto a clone of
//!   the pristine deployment, `QueryService::recover` and the first
//!   tick; (C) 210 ticks of one time-travel query each, `AS OF` a seeded
//!   capture or, every 7th, `BETWEEN` four captures. The only workload
//!   that touches `snapshot-store`.
//!
//! ## Oracles
//!
//! * The first AVG/SUM answer served in each tick equals, bit for bit,
//!   `snapshot_core::query::execute_frozen` on the same state.
//! * Every `AS OF` / `BETWEEN` answer equals the live answer recorded
//!   when its capture was taken, over the right number of epochs.
//! * Each restart's first-tick completions equal the original
//!   service's completions for that tick.
//! * A lossless set-up election sends at most 6 messages from any node,
//!   counted after `stats_mut().reset()`.
//! * deploy-churn ends with no open repair episode.
//!
//! ## Which layer moves which end-to-end metric
//!
//! Per-layer metrics give the time each layer was busy over the traced
//! round (`*_ms`), the work it did, and the harness's own accounting.
//! Those marked (T) come from the library's `span_wall_ns_*` counters,
//! the rest from timers around the benchmark's own calls. The layers
//! nest inside the benchmark's top-level phases — set-up, serving
//! ticks, cycles, probes, captures, restarts, oracles — which add up
//! to `round_ms` but for `trace.unattributed_frac`.
//!
//! * `datagen.ms`, `netsim.topology_ms`, `core.train_ms`,
//!   `core.elect_ms` → `setup_s` everywhere; training is about 90 % of
//!   it on the serve workloads.
//! * `netsim.deliver_ms` (T), `netsim.deliver_rounds`, `netsim.msgs_*`,
//!   `netsim.woken_per_tick` and the election phases
//!   `core.elect.{invite,candidates,accept,refine}_ms` (T) → `run_s` on
//!   deploy-churn, `setup_s` and `msgs_per_node` everywhere; not the
//!   serve workloads' query latency.
//! * `core.maintain_ms_total`, `core.repair_ticks_p50` → `run_s` on
//!   deploy-churn only.
//! * `core.query_ms_mean` (T), `core.scans` → `query_ms_*` and `run_s`
//!   on serve-unique (a scan per query-epoch), less on serve-shared (a
//!   scan per about 50 epochs), the probe latency on deploy-churn; not
//!   `query_ms_*` on history, which decodes a stored state per query.
//! * `query.plan_ms_total`, `query.plans` → `query_ms_*` on
//!   serve-unique only.
//! * `query.serve.tick_ms_*`, `query.serve.admit_ms` (T),
//!   `query.serve.batch_ms` (T) and the serve counters → `query_ms_p95`
//!   and `run_s` on serve-shared; `query.serve.cached_plans` →
//!   `peak_rss_mb` on serve-unique; on history `query.serve.admit_ms`
//!   holds the time-travel decoding that sets `query_ms_*`.
//! * `core.checkpoint_extract_ms`, `store.append_ms`, `store.open_ms`,
//!   `store.decode_ms`, `core.restore_ms`, `query.serve.recover_ms` →
//!   `run_s` on history; `store.bytes_*` → `peak_rss_mb` and `run_s`
//!   there.
//!
//! ## First measurements
//!
//! Two sets of five runs each, `--seed 1 --seconds 30`, one set after
//! the other, on a shared virtual machine with 2 Intel Xeon vCPUs
//! (`nproc` = 2) and 16 GB. Each cell is the set's median [first
//! quartile, third quartile]:
//!
//! ```text
//! workload      metric        set A                       set B
//! serve-shared  setup_s       1.363 [1.261, 1.381]        1.272 [1.256, 1.298]
//! serve-shared  query_ms_p50  13.64 [13.53, 13.78]        13.8 [13.66, 14.02]
//! serve-shared  query_ms_p95  14.29 [14.01, 14.49]        14.7 [14.42, 14.92]
//! serve-shared  run_s         1.387 [1.374, 1.404]        1.41 [1.388, 1.422]
//! serve-shared  peak_rss_mb   131.1 [129.8, 131.2]        131.1 [130, 131.5]
//! serve-unique  setup_s       1.273 [1.269, 1.295]        1.28 [1.216, 1.341]
//! serve-unique  query_ms_p50  27.37 [26.74, 27.64]        27.46 [26.72, 27.88]
//! serve-unique  query_ms_p95  32.35 [31.77, 32.75]        32.69 [32, 33.88]
//! serve-unique  run_s         2.12 [2.085, 2.131]         2.133 [2.08, 2.147]
//! serve-unique  peak_rss_mb   123.7 [123.6, 123.8]        123.6 [123.4, 123.8]
//! deploy-churn  setup_s       0.449 [0.44, 0.4538]        0.4554 [0.4536, 0.4575]
//! deploy-churn  query_ms_p50  5.562 [5.433, 5.614]        5.66 [5.456, 5.845]
//! deploy-churn  query_ms_p95  22.9 [22.2, 23.1]           23.51 [22.71, 24.02]
//! deploy-churn  run_s         3.303 [3.267, 3.331]        3.356 [3.289, 3.466]
//! deploy-churn  peak_rss_mb   131.3 [131.1, 131.4]        131.4 [131.2, 131.6]
//! history       setup_s       0.01061 [0.01013, 0.01106]  0.01069 [0.01057, 0.01086]
//! history       query_ms_p50  11.96 [11.78, 12.01]        11.69 [11.66, 11.78]
//! history       query_ms_p95  50.35 [49.86, 50.97]        49.43 [48.76, 49.92]
//! history       run_s         4.856 [4.709, 4.932]        4.757 [4.712, 4.863]
//! history       peak_rss_mb   146 [145.9, 146]            145.9 [145.9, 146]
//! ```
//!
//! The medians of the two sets differ by at most 3 % for every latency
//! and `run_s`, and by at most 6.7 % for `setup_s` (serve-shared). Over
//! these runs the host ran between 0.99 and 1.59 times slower than
//! reference speed; in wall time the same runs spread up to 0.37 of
//! their median between quartiles (deploy-churn's `run_s` in set A).
//!
//! The deterministic metrics were the same in every run with one seed
//! and in the traced runs, which check them against their untraced
//! pair: with `--seed 1`, `msgs_per_node` is 136.63, 236.22, 122.73
//! and 97.706, and `answer_err` 0.001147, 0.000750, 0.000906 and
//! 0.002028, for serve-shared, serve-unique, deploy-churn and history.
//! Traced runs left at most 1.3 % of the round unattributed; tracing
//! cost between −4.7 % and +4.0 % of a round at reference speed
//! (`trace.overhead_frac`, which is negative when the traced round ran
//! faster than its untraced pair).
//!
//! ## Spread over seeds
//!
//! Three sets of ten runs per workload — `--seed 1` to `--seed 10`
//! twice, then `--seed 41` to `--seed 50` — with the ten runs of one
//! workload after one another, on the same machine. Each cell is the
//! distance between the first and third quartile as a share of the
//! median, for the three sets:
//!
//! ```text
//! workload      setup_s            query_ms_p50       query_ms_p95       run_s
//! serve-shared  0.047 0.043 0.037  0.016 0.050 0.079  0.025 0.048 0.084  0.017 0.053 0.082
//! serve-unique  0.033 0.047 0.026  0.027 0.048 0.024  0.045 0.029 0.035  0.022 0.042 0.029
//! deploy-churn  0.056 0.068 0.102  0.028 0.051 0.039  0.044 0.029 0.034  0.018 0.031 0.035
//! history       0.039 0.102 0.091  0.054 0.092 0.105  0.060 0.058 0.092  0.067 0.038 0.070
//! ```
//!
//! The medians of the three sets lie within 5.4 % of one another for
//! every latency and `run_s`, and within 9.1 % for `setup_s`:
//! 1.29–1.30 s, 13.7–13.9 ms, 14.5–14.6 ms and 1.40–1.41 s
//! on serve-shared; 1.28–1.31 s, 27.5–28.2 ms, 32.3–33.5 ms and
//! 2.11–2.19 s on serve-unique; 0.445–0.466 s, 5.60–5.68 ms,
//! 23.0–23.4 ms and 3.36–3.40 s on deploy-churn; and 10.2–11.1 ms,
//! 11.4–12.0 ms, 49.0–50.6 ms and 4.65–4.74 s on history (`setup_s`,
//! `query_ms_p50`, `query_ms_p95`, `run_s`). The same runs in wall time
//! spread 0.06–0.55 between quartiles. `peak_rss_mb` spread at most
//! 0.025, and the seed moved `msgs_per_node` by at most 0.013 and
//! `answer_err` by at most 0.045; on deploy-churn, whose probes the seed
//! only reorders, neither moves at all.
//!
//! What is left of the host's changes of speed comes from the
//! reference work and the program not slowing down by the same factor:
//! in runs that fell into a stretch 1.5 to 1.7 times slower, history
//! read about 8 % slower and serve-shared about 8 % faster than in
//! fast stretches, so a set that mixes the two spreads to about 0.1 on
//! those workloads. That is why every timing bound is 0.25.

mod measure;
mod spec;
mod speed;
mod workloads;

use measure::{
    latencies, median, median_segments, ms, now_ns, peak_rss_mb, percentile, same_work, Round,
};
use std::path::Path;
use std::process::ExitCode;
use workloads::Deploy;

/// Rounds an untraced run makes at least, so `setup_s` is a median of
/// several set-ups and each segment has several repetitions.
const MIN_ROUNDS: usize = 3;
/// Where history keeps its store files, relative to the working
/// directory.
const SCRATCH: &str = ".e2e-scratch";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    list: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        list: false,
    };
    let number = |flag: &str, v: Option<String>| {
        v.as_deref()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    let mut it = args.peekable();
    let mut rest: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => out.workload = Some(it.next().ok_or("--workload needs a name")?),
            "--seed" => out.seed = number("--seed", it.next())?,
            "--seconds" => out.seconds = number("--seconds", it.next())?,
            "--trace" => {
                out.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => out.quick = true,
            "--list" => out.list = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            _ => rest.push(a),
        }
    }
    match rest.as_slice() {
        [] => {}
        [w] if out.workload.is_none() => out.workload = Some(w.clone()),
        _ => return Err(format!("unexpected arguments {rest:?}")),
    }
    if let Some(w) = &out.workload {
        if w != "all" && spec::workload(w).is_none() {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if out.workload.is_none() && !out.list {
        return Err("name a workload with --workload, or pass --list".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let workload = args.workload.as_deref().unwrap_or_default();
    if workload == "all" {
        return run_all(&args);
    }
    let scratch = Path::new(SCRATCH);
    let result = if args.trace {
        run_traced(workload, &args, scratch)
    } else {
        run(workload, &args, scratch)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e {workload} seed {}: {e}", args.seed);
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: each workload in its own child process, in turn.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("e2e: cannot find the running executable");
        return ExitCode::FAILURE;
    };
    for w in spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            _ => {
                eprintln!("e2e: workload {} failed", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Whether a run that started at `start` with `budget` ns should stop
/// after `done` rounds: when it has made `min` and another round of
/// average length would overrun the budget.
fn budget_spent(start: u64, budget: u64, done: usize, min: usize) -> bool {
    let spent = now_ns() - start;
    done >= min && spent + spent / done as u64 > budget
}

/// The untraced run: the end-to-end metrics.
///
/// Full rounds — a set-up and the measured phase on it — until
/// `--seconds` are used, at least [`MIN_ROUNDS`]; `setup_s` is the
/// median set-up at reference speed. The first round runs the oracles;
/// every later one must give the same answers. Every round does the
/// same work, so latencies and `run_s` come from the median over the
/// rounds of each segment's time at reference speed.
fn run(workload: &str, args: &Args, scratch: &Path) -> Result<String, String> {
    let budget = args.seconds * 1_000_000_000;
    let start = now_ns();
    let d = workloads::deploy(workload, args.quick);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let r = full_round(workload, &d, args, false, rounds.is_empty(), scratch)?;
        if let Some(first) = rounds.first() {
            same_work(first, &r, "a later round")?;
        }
        rounds.push(r);
        if budget_spent(start, budget, rounds.len(), MIN_ROUNDS) {
            break;
        }
    }

    let first = &rounds[0];
    let [setup_s, p50, p95, run_s] = times(&rounds, |r| r.setup_ref_ns, |s| s.ref_ns);
    let wall = times(
        &rounds,
        |r| r.phases.get("setup").copied().unwrap_or(0),
        |s| s.wall_ns,
    );
    let slowdown: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.speed.as_ref().map(|s| s.slowdown()))
        .collect();
    let values = [
        setup_s,
        p50,
        p95,
        run_s,
        peak_rss_mb(),
        first.msgs_per_node(),
        first.answer_err(),
    ];
    eprintln!(
        "e2e {workload} seed {}: {} rounds of {} segments, {} timed queries, {} oracle checks; \
         in wall time setup_s {:.4}, query_ms_p50 {:.3}, query_ms_p95 {:.3}, run_s {:.4}, \
         with the host {:.3} times slower than reference speed",
        args.seed,
        rounds.len(),
        first.segments.len(),
        first.queries.len(),
        first.oracle_checks,
        wall[0],
        wall[1],
        wall[2],
        wall[3],
        median(&slowdown),
    );
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    report(spec::END_TO_END, &values, attempted, failed)
}

/// `setup_s`, `query_ms_p50`, `query_ms_p95` and `run_s` of `rounds`,
/// with each round's set-up time, ns, as `setup` reads it and each
/// segment's as `segment` does: the median set-up, and latencies and
/// the measured phase from the median of each segment.
fn times(
    rounds: &[Round],
    setup: impl Fn(&Round) -> u64,
    segment: impl Fn(&measure::Segment) -> u64,
) -> [f64; 4] {
    let setups: Vec<f64> = rounds.iter().map(|r| setup(r) as f64 / 1e9).collect();
    let segments = median_segments(rounds, segment);
    let queries = rounds.first().map_or(&[][..], |r| &r.queries);
    let latency: Vec<f64> = latencies(&segments, queries).into_iter().map(ms).collect();
    [
        median(&setups),
        percentile(&latency, 50.0),
        percentile(&latency, 95.0),
        segments.iter().sum::<u64>() as f64 / 1e9,
    ]
}

/// One round: a set-up and the measured phase on it. `check` runs the
/// oracles.
fn full_round(
    workload: &str,
    d: &Deploy,
    args: &Args,
    traced: bool,
    check: bool,
    scratch: &Path,
) -> Result<Round, String> {
    let start = now_ns();
    let mut r = Round::default();
    let sn = workloads::setup(d, traced)?.charge(&mut r);
    let (seed, quick) = (args.seed, args.quick);
    workloads::measure(workload, sn, seed, quick, check, scratch, &mut r)?;
    r.wall_ns = now_ns() - start;
    Ok(r)
}

/// Library spans reported as a layer's busy time, by metric name.
const SPAN_MS: &[(&str, &str)] = &[
    ("netsim.deliver_ms", "deliver"),
    ("core.elect.invite_ms", "election_invite"),
    ("core.elect.candidates_ms", "election_candidates"),
    ("core.elect.accept_ms", "election_accept"),
    ("core.elect.refine_ms", "election_refine"),
    ("query.serve.admit_ms", "serve_admit"),
    ("query.serve.batch_ms", "serve_batch"),
];

/// The traced run: the per-layer metrics.
///
/// Pairs of full rounds, one untraced and one traced, until
/// `--seconds` are used; each pair must agree on every deterministic
/// result. The metrics come from the fastest traced round, and
/// `trace.overhead_frac` is the median over the pairs of how much longer
/// the traced round took at reference speed.
fn run_traced(workload: &str, args: &Args, scratch: &Path) -> Result<String, String> {
    let budget = args.seconds * 1_000_000_000;
    let start = now_ns();
    let d = workloads::deploy(workload, args.quick);
    let mut traced: Option<Round> = None;
    let mut overheads: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let base = full_round(workload, &d, args, false, true, scratch)?;
        let t = full_round(workload, &d, args, true, true, scratch)?;
        same_work(&base, &t, "the traced round")?;
        attempted += base.attempted + t.attempted;
        failed += base.failed + t.failed;
        overheads.push(t.ref_ns() as f64 / base.ref_ns().max(1) as f64 - 1.0);
        if traced.as_ref().is_none_or(|f| t.wall_ns < f.wall_ns) {
            traced = Some(t);
        }
        if budget_spent(start, budget, overheads.len(), 1) {
            break;
        }
    }
    let t = traced.ok_or("no traced round ran")?;

    let wall = t.wall_ns as f64;
    let unattributed = 1.0 - t.phases.values().sum::<u64>() as f64 / wall;
    eprint!("{}", layer_tree(&t));
    if unattributed > 0.05 {
        return Err(format!(
            "{:.1} % of the traced round's wall time is outside every phase timer",
            unattributed * 100.0
        ));
    }
    let span_ms = |kind: &str| ms(t.counter(&format!("span_wall_ns_{kind}")));
    let ticks: Vec<f64> = t
        .segments
        .iter()
        .filter(|s| s.name == "serve")
        .map(|s| ms(s.wall_ns))
        .collect();
    let values: Vec<f64> = spec::PER_LAYER
        .iter()
        .map(|m| {
            if let Some(&ns) = t.busy.get(m.name) {
                return ms(ns);
            }
            if let Some((_, kind)) = SPAN_MS.iter().find(|(name, _)| *name == m.name) {
                return span_ms(kind);
            }
            match m.name {
                "round_ms" => ms(t.wall_ns),
                "netsim.deliver_rounds" => t.counter("span_deliver") as f64,
                "core.query_ms_mean" => span_ms("query") / t.counter("span_query").max(1) as f64,
                "core.scans" => t.counter("span_query") as f64,
                "query.serve.tick_ms_p50" => percentile(&ticks, 50.0),
                "query.serve.tick_ms_p99" => percentile(&ticks, 99.0),
                "oracle.ms" => ms(t.phases.get("oracle").copied().unwrap_or(0)),
                "oracle.checks" => t.oracle_checks as f64,
                "trace.overhead_frac" => median(&overheads),
                "host.slowdown" => t.speed.as_ref().map_or(0.0, |s| s.slowdown()),
                "trace.unattributed_frac" => unattributed,
                name => t.layers.get(name).copied().unwrap_or(0.0),
            }
        })
        .collect();
    report(spec::PER_LAYER, &values, attempted, failed)
}

/// The result line: every metric of `metrics`, by name, with its unit.
fn report(
    metrics: &[spec::Metric],
    values: &[f64],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (m, v) in metrics.iter().zip(values) {
        if !v.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// The traced round as a tree: the benchmark's top-level phase timers,
/// the layers it timed around its own calls, and the library's spans
/// (totals over the round) with self times where the nesting is known.
fn layer_tree(r: &Round) -> String {
    let line = |name: &str, ns: u64| format!("  {name:<32} {:>12.3} ms\n", ms(ns));
    let mut out = format!("round {:>39.3} ms\nphases:\n", ms(r.wall_ns));
    for (name, &ns) in &r.phases {
        out.push_str(&line(name, ns));
    }
    let attributed: u64 = r.phases.values().sum();
    out.push_str(&line(
        "(unattributed)",
        r.wall_ns.saturating_sub(attributed),
    ));
    out.push_str("layers timed by the benchmark:\n");
    for (name, &ns) in &r.busy {
        out.push_str(&line(name, ns));
    }
    out.push_str("library spans, inclusive (self):\n");
    // Each span kind with the kinds whose time nests inside it.
    let tree: &[(&str, &[&str])] = &[
        (
            "election",
            &[
                "election_invite",
                "election_candidates",
                "election_accept",
                "election_refine",
            ],
        ),
        ("maintenance", &[]),
        ("serve_tick", &["serve_admit", "serve_batch"]),
        ("serve_admit", &[]),
        ("serve_batch", &["query"]),
        ("query", &[]),
        ("deliver", &[]),
    ];
    let span = |kind: &str| r.counter(&format!("span_wall_ns_{kind}"));
    for (kind, children) in tree {
        let incl = span(kind);
        if incl == 0 {
            continue;
        }
        let mut row = line(kind, incl);
        if !children.is_empty() {
            let own = incl.saturating_sub(children.iter().map(|c| span(c)).sum());
            row.insert_str(row.len() - 1, &format!("  ({:.3})", ms(own)));
        }
        out.push_str(&row);
    }
    out
}

#[cfg(test)]
mod tests;
