//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [ids...] [--reps N] [--seed S] [--out DIR] [--quick] [--jobs N]
//!             [--fault-plan FILE] [--drain-mode wake-list|all-scan]
//!
//!   ids      experiment ids (fig1 table2 fig6 ... fig15, ablations,
//!            heal burst-loss trace scale serve), or `all`
//!   --reps   repetitions to average over (default 10, as in the paper)
//!   --seed   base seed (default 1)
//!   --out    directory for CSV artifacts (default EXPERIMENTS-results)
//!   --quick  smaller sweeps for smoke testing
//!   --jobs   worker threads (default: available parallelism)
//!   --fault-plan  a `.fault` scenario file (grammar in FAULTS.md),
//!            injected by the fault-aware experiments (heal, trace)
//!   --drain-mode  per-tick drain candidates: `wake-list` (default,
//!            O(active)) or `all-scan` (the retained reference path;
//!            byte-identical output, DESIGN.md §16)
//! ```
//!
//! Reports go to stdout in the order the ids were given (canonical
//! order for `all`), regardless of `--jobs`; stdout and the CSV
//! artifacts are byte-identical for every `--jobs` value. Timing
//! lines go to stderr, where nondeterminism is allowed.

use snapshot_bench::{experiments, runner, RunContext};
use std::path::PathBuf;
use std::time::Instant;

// Wall-clock here only feeds the stderr timing lines; the simulated
// runs themselves stay on the deterministic logical clock.
#[allow(clippy::disallowed_methods)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut jobs = runner::default_jobs();
    let mut ctx = RunContext {
        out_dir: Some(PathBuf::from("EXPERIMENTS-results")),
        ..RunContext::default()
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                ctx.reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| die("--reps needs a positive integer"));
            }
            "--seed" => {
                i += 1;
                ctx.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                i += 1;
                ctx.out_dir = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--out needs a directory")),
                ));
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j > 0)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--fault-plan" => {
                i += 1;
                let path = args
                    .get(i)
                    .unwrap_or_else(|| die("--fault-plan needs a file path"));
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                ctx.fault_plan = Some(
                    snapshot_netsim::FaultPlan::parse(&text)
                        .unwrap_or_else(|e| die(&format!("{path}: {e}"))),
                );
            }
            "--drain-mode" => {
                i += 1;
                let mode = match args.get(i).map(String::as_str) {
                    Some("wake-list") => snapshot_netsim::DrainMode::WakeList,
                    Some("all-scan") => snapshot_netsim::DrainMode::AllScan,
                    _ => die("--drain-mode needs `wake-list` or `all-scan`"),
                };
                snapshot_netsim::set_default_drain_mode(mode);
            }
            "--quick" => ctx.quick = true,
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            id => ids.push(id.to_owned()),
        }
        i += 1;
    }

    // Look every id up front so a typo late in the list does not waste
    // the work already done for the ids before it.
    let selected: Vec<_> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter()
            .map(|id| {
                let found = experiments::ALL.iter().find(|&&(known, _)| known == id);
                *found.unwrap_or_else(|| die(&format!("unknown experiment `{id}`")))
            })
            .collect()
    };

    runner::set_jobs(jobs);
    let overall = Instant::now();
    // Fan the experiments across the worker pool; each experiment's
    // repetitions fan out through the same pool. Results come back in
    // input order no matter which cell finished first.
    let results = runner::parallel_map(selected.len(), |k| {
        let started = Instant::now();
        let (_, run) = selected[k];
        (run(&ctx), started.elapsed())
    });

    for (out, took) in &results {
        println!("{}", out.report());
        eprintln!("[{} took {:.1?}]", out.id, took);
    }
    if let Some(dir) = &ctx.out_dir {
        println!("CSV artifacts in {}", dir.display());
    }
    eprintln!("total: {:.1?}", overall.elapsed());
}

fn usage() -> String {
    let ids: Vec<&str> = experiments::ALL.iter().map(|&(id, _)| id).collect();
    format!(
        "usage: experiments [ids...] [--reps N] [--seed S] [--out DIR] [--quick] [--jobs N] \
         [--fault-plan FILE] [--drain-mode wake-list|all-scan]\n\
         known ids: {} (or `all`)\n",
        ids.join(" ")
    )
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{}", usage());
    std::process::exit(2);
}
