//! The cross-snapshot consistency verifier.
//!
//! [`SnapshotStore::verify`] decodes every block in full, rolling each
//! checkpoint chain forward once, and checks the properties that
//! `open` (a structural scan) cannot: monotone
//! checkpoint ticks, a stable deployment shape, structurally valid
//! checkpoints, stored quality flags that match the accounting
//! recomputed from the node records, and serve-state records that
//! reference a checkpoint the store actually holds. Runnable as a
//! library API and as `snapshot-store verify <file>`; the
//! `store_corruption` test suite drives it over damaged files and the
//! oracle harness uses it as the gate after every rebuild.

use crate::error::StoreError;
use crate::store::{SnapshotStore, Walked};
use std::fmt;

/// What a clean [`SnapshotStore::verify`] pass found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Blocks checked, checkpoints and serve states together.
    pub blocks: usize,
    /// Checkpoint blocks among them.
    pub checkpoints: usize,
    /// Keyframes among the checkpoints.
    pub keyframes: usize,
    /// Deltas among the checkpoints.
    pub deltas: usize,
    /// Serve-state blocks among them.
    pub serve_states: usize,
    /// Deployment size (0 for an empty store).
    pub nodes: usize,
    /// Ticks of the stored checkpoints, oldest first.
    pub ticks: Vec<u64>,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks ok: {} checkpoints ({} keyframes, {} deltas), {} serve states, {} nodes",
            self.blocks,
            self.checkpoints,
            self.keyframes,
            self.deltas,
            self.serve_states,
            self.nodes
        )?;
        if let (Some(first), Some(last)) = (self.ticks.first(), self.ticks.last()) {
            write!(f, ", ticks {first}..={last}")?;
        }
        Ok(())
    }
}

/// A remediation hint for every way a store can fail, printed by the
/// `snapshot-store` CLI next to the error itself so the operator knows
/// what to do about the [`VerifyReport`] they did not get. The match
/// has no wildcard arm, so a new `StoreError` variant fails to compile
/// here until it has a hint.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn remediation(err: &StoreError) -> &'static str {
    match err {
        StoreError::Io { .. } => "check the path, permissions and free space, then retry",
        StoreError::BadHeader { .. } => {
            "this is not a snapshot-store v2 file (v1 files are not read); point at a file written by SnapshotStore"
        }
        StoreError::Truncated { .. } => {
            "a torn final write; rebuild from the last sealed version to drop the partial block"
        }
        StoreError::BadRecord { .. } => {
            "the named line was edited or damaged; restore the file from a rebuilt replica"
        }
        StoreError::Corrupt { .. } => {
            "bit rot inside the named block; restore that version from a replica and re-verify"
        }
        StoreError::VersionOrder { .. } => {
            "blocks were reordered; rebuild from a store that still opens to re-sequence them"
        }
        StoreError::NoSuchVersion { .. } => {
            "that version was never written here; list what the store holds with `snapshot-store info`"
        }
        StoreError::NoVersionAsOf { .. } => {
            "the tick predates the first checkpoint; widen the window or checkpoint earlier"
        }
        StoreError::Inconsistent { .. } => {
            "the block decoded cleanly but contradicts the rest of the store; the detail names the cross-check"
        }
    }
}

impl SnapshotStore {
    /// Decode and cross-check every block, walking each checkpoint
    /// chain once, forward. Returns a summary on success; the first
    /// violation aborts with a typed error naming the offending
    /// version.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport {
            blocks: 0,
            checkpoints: 0,
            keyframes: 0,
            deltas: 0,
            serve_states: 0,
            nodes: 0,
            ticks: Vec::new(),
        };
        let mut shape: Option<(usize, u64)> = None; // (nodes, range bits)
        let mut checkpoint_versions: Vec<u64> = Vec::new();

        self.walk(|block| {
            report.blocks += 1;
            match block {
                Walked::Checkpoint {
                    version,
                    keyframe,
                    state: cp,
                    stored_quality,
                } => {
                    report.checkpoints += 1;
                    if keyframe {
                        report.keyframes += 1;
                    } else {
                        report.deltas += 1;
                    }
                    cp.validate().map_err(|e| StoreError::Inconsistent {
                        version,
                        detail: e.to_string(),
                    })?;
                    if let Some(&prev) = report.ticks.last() {
                        if cp.tick < prev {
                            return Err(StoreError::Inconsistent {
                                version,
                                detail: format!(
                                    "tick {} regresses below version {}'s tick {prev}",
                                    cp.tick,
                                    checkpoint_versions.last().copied().unwrap_or(0)
                                ),
                            });
                        }
                    }
                    let this_shape = (cp.nodes.len(), cp.range.to_bits());
                    match shape {
                        None => shape = Some(this_shape),
                        Some(s) if s != this_shape => {
                            return Err(StoreError::Inconsistent {
                                version,
                                detail: format!(
                                    "deployment shape changed: {} nodes, was {}",
                                    this_shape.0, s.0
                                ),
                            });
                        }
                        Some(_) => {}
                    }
                    let recomputed = cp.quality();
                    if stored_quality != recomputed {
                        return Err(StoreError::Inconsistent {
                            version,
                            detail: format!(
                                "stored quality flags {stored_quality:?} disagree with recomputed {recomputed:?}"
                            ),
                        });
                    }
                    report.nodes = cp.nodes.len();
                    report.ticks.push(cp.tick);
                    checkpoint_versions.push(version);
                }
                Walked::Serve { version, record } => {
                    report.serve_states += 1;
                    if !checkpoint_versions.contains(&record.checkpoint_version) {
                        return Err(StoreError::Inconsistent {
                            version,
                            detail: format!(
                                "serve state references checkpoint {} which the store does not hold",
                                record.checkpoint_version
                            ),
                        });
                    }
                    if record
                        .pending
                        .iter()
                        .map(|p| p.ticket)
                        .chain(record.active.iter().map(|a| a.ticket))
                        .any(|t| t >= record.next_ticket)
                    {
                        return Err(StoreError::Inconsistent {
                            version,
                            detail: "a persisted ticket is not below next_ticket".into(),
                        });
                    }
                }
            }
            Ok(())
        })?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ServeStateRecord;
    use snapshot_core::cache::CachePolicy;
    use snapshot_core::checkpoint::{CheckpointState, NodeCheckpoint};
    use snapshot_core::sensor::Mode;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "snapshot-store-verify-{}-{name}",
            std::process::id()
        ));
        p
    }

    fn checkpoint(tick: u64) -> CheckpointState {
        CheckpointState {
            tick,
            epoch: 1,
            range: 1.0,
            positions: vec![(0.0, 0.0), (0.5, 0.5)],
            neighbors: vec![vec![1], vec![0]],
            alive: vec![true, true],
            values: vec![1.0, 2.0],
            budget_bytes: 2048,
            pair_bytes: 8,
            policy: CachePolicy::ModelAware,
            nodes: vec![
                NodeCheckpoint {
                    mode: Mode::Active,
                    rep_of: None,
                    represents: vec![(1, 1)],
                    forced_active: false,
                    refusing_invites: false,
                    rr_after: None,
                    lines: Vec::new(),
                },
                NodeCheckpoint {
                    mode: Mode::Passive,
                    rep_of: Some((0, 1)),
                    represents: Vec::new(),
                    forced_active: false,
                    refusing_invites: false,
                    rr_after: None,
                    lines: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn clean_stores_verify_with_a_summary() {
        let path = tmp("clean");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&checkpoint(40)).unwrap();
        store.append_checkpoint(&checkpoint(50)).unwrap();
        store
            .append_serve_state(&ServeStateRecord {
                checkpoint_version: 2,
                next_ticket: 1,
                stats: [0; 10],
                pending: Vec::new(),
                active: Vec::new(),
            })
            .unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.blocks, 3);
        assert_eq!(report.checkpoints, 2);
        assert_eq!((report.keyframes, report.deltas), (1, 1));
        assert_eq!(report.serve_states, 1);
        assert_eq!(report.ticks, vec![40, 50]);
        assert_eq!(
            report.to_string(),
            "3 blocks ok: 2 checkpoints (1 keyframes, 1 deltas), 1 serve states, 2 nodes, ticks 40..=50"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn doctored_quality_flags_fail_verification() {
        let path = tmp("quality");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&checkpoint(40)).unwrap();

        // Hand-edit the quality line and re-seal the block so the CRC
        // passes but the flags no longer match the node records.
        let text = fs::read_to_string(&path).unwrap();
        let doctored: Vec<String> = text
            .lines()
            .map(|l| {
                if l.starts_with("quality ") {
                    l.replace("active 1", "active 2")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let mut body = String::new();
        for line in &doctored {
            if line.starts_with("end ") || line == crate::format::HEADER {
                continue;
            }
            body.push_str(line);
            body.push('\n');
        }
        let crc = crate::format::crc32(body.as_bytes());
        let mut out = String::new();
        out.push_str(crate::format::HEADER);
        out.push('\n');
        out.push_str(&body);
        out.push_str(&format!("end 1 crc {crc:08x}\n"));
        fs::write(&path, out).unwrap();

        let store = SnapshotStore::open(&path).unwrap();
        match store.verify() {
            Err(StoreError::Inconsistent { version: 1, detail }) => {
                assert!(detail.contains("quality"), "detail: {detail}");
            }
            other => panic!("expected quality inconsistency, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
