//! One module per table/figure of the paper's evaluation.
//!
//! | id       | artifact  | what it reproduces                                   |
//! |----------|-----------|------------------------------------------------------|
//! | `fig1`   | Figure 1  | example network snapshot (DOT + edge list)           |
//! | `table2` | Table 2   | messages per node per election/maintenance phase     |
//! | `fig6`   | Figure 6  | snapshot size vs number of classes K                 |
//! | `fig7`   | Figure 7  | snapshot size vs message loss (K = 1)                |
//! | `fig8`   | Figure 8  | model-aware vs round-robin cache vs cache size       |
//! | `fig9`   | Figure 9  | snapshot size vs transmission range                  |
//! | `table3` | Table 3   | participant reduction in spatial snapshot queries    |
//! | `fig10`  | Figure 10 | network coverage over time, regular vs snapshot      |
//! | `fig11`  | Figure 11 | snapshot size vs threshold T (weather data)          |
//! | `fig12`  | Figure 12 | mean estimate sse vs threshold T (weather data)      |
//! | `fig13`  | Figure 13 | spurious representatives vs message loss             |
//! | `fig14`  | Figure 14 | snapshot size over time under periodic maintenance   |
//! | `fig15`  | Figure 15 | messages per node per maintenance update             |
//! | `heal`   | —         | time-to-repair after a representative crash (faults) |
//! | `burst-loss` | —     | i.i.d. vs Gilbert–Elliott loss at equal average rate |
//! | `trace`  | —         | instrumented run exported as a JSONL protocol trace  |
//! | `scale`  | —         | election at N ∈ {1k, 10k, 100k} on the grid topology |
//! | `serve`  | —         | concurrent multi-tenant query serving (QUERIES.md)   |
//! | `history`| —         | persistent snapshot store + AS OF time travel        |

pub mod ablations;
pub mod burst_loss;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod heal;
pub mod history;
pub mod maintenance_over_time;
pub mod scale;
pub mod serve;
pub mod table2;
pub mod table3;
pub mod trace;

use crate::{ExperimentOutput, RunContext};

/// The function that runs one experiment.
pub type ExperimentFn = fn(&RunContext) -> ExperimentOutput;

/// Every experiment as its id and the function that runs it, in paper
/// order, followed by the ablations of the extensions the paper
/// sketches but does not evaluate.
pub const ALL: &[(&str, ExperimentFn)] = &[
    ("fig1", fig1::run),
    ("table2", table2::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("table3", table3::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", maintenance_over_time::run_fig14),
    ("fig15", maintenance_over_time::run_fig15),
    ("abl_routing", ablations::run_routing),
    ("abl_multiq", ablations::run_multiq),
    ("abl_metric", ablations::run_metric),
    ("abl_mobility", ablations::run_mobility),
    ("abl_periodic", ablations::run_periodic),
    ("abl_proximity", ablations::run_proximity),
    ("heal", heal::run),
    ("burst-loss", burst_loss::run),
    ("trace", trace::run),
    ("scale", scale::run),
    ("serve", serve::run),
    ("history", history::run),
];

/// Run one experiment by id.
pub fn run(id: &str, ctx: &RunContext) -> Option<ExperimentOutput> {
    let &(_, run) = ALL.iter().find(|&&(known, _)| known == id)?;
    Some(run(ctx))
}
