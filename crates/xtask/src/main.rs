//! `cargo xtask benchcmp` — the micro-benchmark regression gate.
//!
//! Exit status: 0 when the gate passes, 1 on an allocation regression
//! or a missing bench, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask benchcmp <baseline.json> <current.json> [--tolerance F]

benchcmp compares two MICROBENCH_JSON files (one JSON record per
bench). Deterministic allocation counters gate hard beyond the
tolerance (default 0.15; a baseline of 0 allocs admits only 0);
wall-clock is advisory, warnings only: it compares minima when both
records carry min_ns, medians otherwise. A baseline bench missing
from the current file fails the gate.";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("benchcmp") => benchcmp_main(args),
        Some("--help") | Some("help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn benchcmp_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut tolerance = 0.15;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => {
                tolerance = match args.next().as_deref().map(str::parse) {
                    Some(Ok(t)) if (0.0..10.0).contains(&t) => t,
                    _ => {
                        eprintln!("--tolerance needs a fraction like 0.15\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        eprintln!("benchcmp needs exactly two files\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &PathBuf| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("xtask benchcmp: {}: {e}", p.display());
            None
        }
    };
    let (Some(baseline_text), Some(current_text)) = (read(baseline_path), read(current_path))
    else {
        return ExitCode::from(2);
    };
    let baseline = xtask::benchcmp::parse_records(&baseline_text);
    let current = xtask::benchcmp::parse_records(&current_text);
    if baseline.is_empty() {
        eprintln!(
            "xtask benchcmp: no benchmark records in {}",
            baseline_path.display()
        );
        return ExitCode::from(2);
    }
    let report = xtask::benchcmp::compare(&baseline, &current, tolerance);
    print!("{}", report.render());
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
