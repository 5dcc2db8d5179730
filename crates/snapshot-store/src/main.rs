//! `snapshot-store` — inspect and verify store files.
//!
//! ```text
//! snapshot-store verify <file>     run the consistency verifier
//! snapshot-store info <file>       list stored versions and block sizes
//! snapshot-store rebuild <file> <out>   decode + re-encode (byte-identical)
//! ```
//!
//! Exit status: 0 clean, 1 usage error, 2 verification/decode failure.

use snapshot_store::{remediation, RecordKind, SnapshotStore, StoreError};
use std::process::ExitCode;

const USAGE: &str = "usage: snapshot-store <verify|info|rebuild> <file> [out]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(cmd), Some(path)) => (cmd.as_str(), path.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    match cmd {
        "verify" => verify(path),
        "info" => info(path),
        "rebuild" => match args.get(2) {
            Some(out) => rebuild(path, out),
            None => {
                eprintln!("{USAGE}");
                ExitCode::from(1)
            }
        },
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            ExitCode::from(1)
        }
    }
}

/// Print a typed failure with its remediation hint; always exit 2.
fn fail(path: &str, e: &StoreError) -> ExitCode {
    eprintln!("{path}: {e}");
    eprintln!("  hint: {}", remediation(e));
    ExitCode::from(2)
}

fn verify(path: &str) -> ExitCode {
    let store = match SnapshotStore::open(path) {
        Ok(store) => store,
        Err(e) => return fail(path, &e),
    };
    match store.verify() {
        Ok(report) => {
            println!("{path}: {report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(path, &e),
    }
}

fn info(path: &str) -> ExitCode {
    let store = match SnapshotStore::open(path) {
        Ok(store) => store,
        Err(e) => return fail(path, &e),
    };
    for row in store.versions() {
        let (version, bytes) = (row.version, row.bytes);
        match (row.kind, row.base) {
            (RecordKind::Checkpoint, base) => {
                let tick = row.tick.unwrap_or(0);
                let block = match base {
                    None => "keyframe".to_string(),
                    Some(base) => format!("delta of {base}"),
                };
                println!("version {version:>4}  checkpoint   tick {tick}  {block}  {bytes} bytes");
            }
            (RecordKind::ServeState, _) => {
                println!("version {version:>4}  serve-state  {bytes} bytes");
            }
        }
    }
    ExitCode::SUCCESS
}

fn rebuild(path: &str, out: &str) -> ExitCode {
    let store = match SnapshotStore::open(path) {
        Ok(store) => store,
        Err(e) => return fail(path, &e),
    };
    match store.rebuild(out) {
        Ok(rebuilt) => {
            println!("rebuilt {} blocks into {out}", rebuilt.versions().len());
            ExitCode::SUCCESS
        }
        Err(e) => fail(path, &e),
    }
}
