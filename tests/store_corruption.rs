//! Damaged-store negative tests: random bit flips and truncations
//! against a real store file must surface as *typed* [`StoreError`]s
//! carrying the offending version/offset — never a panic, and never a
//! silent wrong answer. A mutation-style liveness check keeps the
//! gate honest: across the randomized sweep every major detector
//! (CRC mismatch, truncation, malformed record) must actually fire,
//! so a regression that quietly stops detecting damage fails here
//! even though each individual case would still "pass".
//!
//! An open store keeps block offsets, not block text, so the same
//! damage made *after* `open` must be caught by the read that reaches
//! it: the second pair of sweeps flips bits in, and cuts, the file
//! under an open store and reads every version back. A checkpoint is
//! read back through its chain — the keyframe at or before it and
//! every delta up to it — so damage to one block fails exactly the
//! versions whose chain holds that block.

use snapshot_bench::RandomWalkSetup;
use snapshot_queries::core::{
    Aggregate, QueryMode, SensorNetwork, SnapshotQuery, SpatialPredicate,
};
use snapshot_queries::netsim::rng::{DetRng, RngExt};
use snapshot_queries::netsim::NodeId;
use snapshot_queries::store::format::KEYFRAME_INTERVAL;
use snapshot_queries::store::{remediation, RecordKind, SnapshotStore, StoreError};
use std::ops::Range;
use std::path::PathBuf;

/// Bit-flip trials (one flipped bit per trial).
const FLIPS: usize = 160;

/// Truncation trials (one cut per trial).
const CUTS: usize = 60;

/// Bit flips made after `open` (one flipped bit per trial).
const LATE_FLIPS: usize = 120;

/// Cuts made after `open` (one cut per trial).
const LATE_CUTS: usize = 40;

fn network(seed: u64) -> SensorNetwork {
    let mut sn = RandomWalkSetup {
        n_nodes: 16,
        k: 2,
        steps: 60,
        train_until: 10,
        elect_at: 40,
        ..RandomWalkSetup::default()
    }
    .build(seed);
    let _ = sn.elect();
    sn
}

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "store-corruption-{}-{label}.store",
        std::process::id()
    ))
}

/// A pristine store of `KEYFRAME_INTERVAL + 2` checkpoints plus one
/// serve-state record, with its bytes in memory: two keyframes, a
/// values-only delta, and — from a kill and a `maintain()` between two
/// captures — a delta with liveness, node and cache-line records. Each
/// caller passes its own `label`: the tests run in parallel, and a
/// shared file would be deleted under one test while the other is
/// still writing it.
fn pristine(label: &str) -> (Vec<u8>, usize) {
    let path = scratch(&format!("pristine-{label}"));
    let mut sn = network(11);
    let mut store = SnapshotStore::create(&path).expect("temp dir is writable");
    let v = store.append_checkpoint(&sn.checkpoint()).expect("append");
    let svc = snapshot_queries::query::serve::QueryService::new(
        snapshot_queries::query::serve::ServeConfig::default(),
        snapshot_queries::query::RegionCatalog::with_quadrants(),
    );
    store
        .append_serve_state(&svc.snapshot_state(v))
        .expect("append serve state");
    for capture in 1..KEYFRAME_INTERVAL + 2 {
        sn.advance(2);
        if capture == 3 {
            sn.net_mut().kill(NodeId(5));
            let _ = sn.maintain();
        }
        store.append_checkpoint(&sn.checkpoint()).expect("append");
    }
    let bytes = std::fs::read(&path).expect("read store");
    let text = String::from_utf8_lossy(&bytes);
    let blocks: Vec<&str> = text.split("\nend ").collect();
    let holds = |block: &&str, records: &[&str]| {
        records
            .iter()
            .all(|r| block.lines().any(|l| l.starts_with(r)))
    };
    assert_eq!(
        blocks.iter().filter(|b| holds(b, &["version "])).count(),
        2,
        "two keyframes"
    );
    assert!(blocks
        .iter()
        .any(|b| holds(b, &["delta "]) && !holds(b, &["alive"]) && !holds(b, &["node "])));
    assert!(
        blocks
            .iter()
            .any(|b| holds(b, &["delta ", "alive", "node "])
                && (holds(b, &["edit "]) || holds(b, &["remove "]))),
        "no delta holds liveness, node and line records"
    );
    let versions = store.versions().len();
    let _ = std::fs::remove_file(&path);
    (bytes, versions)
}

/// Open + verify a damaged image, returning the first typed error (or
/// None when the damage landed somewhere the format tolerates).
fn probe(bytes: &[u8], path: &PathBuf) -> Option<StoreError> {
    std::fs::write(path, bytes).expect("write damaged image");
    let out = match SnapshotStore::open(path) {
        Err(e) => Some(e),
        Ok(store) => store.verify().err(),
    };
    let _ = std::fs::remove_file(path);
    out
}

#[test]
fn random_bit_flips_surface_as_typed_errors_and_every_detector_fires() {
    let (bytes, _) = pristine("flip");
    let path = scratch("flip");
    let mut rng = DetRng::seed_from_u64(0xB17_F11B);
    let mut detected = 0usize;
    let mut detectors = std::collections::BTreeSet::new();
    for _ in 0..FLIPS {
        let mut damaged = bytes.clone();
        let byte = rng.random_range(0..damaged.len() as u64) as usize;
        let bit = rng.random_range(0..8u32);
        damaged[byte] ^= 1 << bit;
        // A flip the decoder accepts (`None`) is not a detection
        // failure per se — the CRC makes it essentially impossible,
        // and `probe` already re-verifies whatever still opens.
        if let Some(e) = probe(&damaged, &path) {
            detected += 1;
            // Every typed failure maps to an operator hint.
            assert!(!remediation(&e).is_empty());
            match &e {
                StoreError::Corrupt { version, offset } => {
                    assert!(*version >= 1, "corruption must name its block");
                    assert!(
                        (*offset as usize) < damaged.len(),
                        "offset {offset} past the file end"
                    );
                    detectors.insert("Corrupt");
                }
                StoreError::BadRecord { line, .. } => {
                    assert!(*line >= 1, "records are 1-indexed");
                    detectors.insert("BadRecord");
                }
                // A flip can also break UTF-8 itself (Io), tear
                // the header, or leave a well-formed-but-wrong
                // block for the cross-checks.
                StoreError::Io { .. } => {
                    detectors.insert("Io");
                }
                StoreError::BadHeader { .. } => {
                    detectors.insert("BadHeader");
                }
                StoreError::Truncated { .. } => {
                    detectors.insert("Truncated");
                }
                StoreError::VersionOrder { .. } => {
                    detectors.insert("VersionOrder");
                }
                StoreError::Inconsistent { .. } => {
                    detectors.insert("Inconsistent");
                }
                other => panic!("unexpected error class for a bit flip: {other}"),
            }
        }
    }
    // Mutation-style liveness: the detectors must actually be alive.
    // (The CRC runs before record parsing, so `Corrupt` dominates;
    // line-level damage — `BadRecord` and friends — is pinned by the
    // store's own unit tests.)
    assert!(
        detected * 100 >= FLIPS * 95,
        "only {detected}/{FLIPS} flips detected — the CRC gate is not firing"
    );
    assert!(
        detectors.contains("Corrupt"),
        "no flip ever tripped the CRC detector"
    );
    assert!(
        detectors.len() >= 2,
        "only {detectors:?} fired — the sweep should trip several detector classes"
    );
}

#[test]
fn random_truncations_never_panic_and_name_the_cut() {
    let (bytes, versions) = pristine("cut");
    let path = scratch("cut");
    let mut rng = DetRng::seed_from_u64(0x7_2C47E);
    let mut saw_truncated = false;
    for _ in 0..CUTS {
        let len = rng.random_range(0..bytes.len() as u64) as usize;
        std::fs::write(&path, &bytes[..len]).expect("write truncated image");
        match SnapshotStore::open(&path) {
            // A cut exactly at a sealed-block boundary legitimately
            // reopens with fewer versions.
            Ok(store) => {
                assert!(store.versions().len() <= versions);
                store.verify().expect("whole sealed prefix verifies");
            }
            Err(StoreError::Truncated { offset }) => {
                assert!(
                    (offset as usize) <= len,
                    "reported offset {offset} past the cut at {len}"
                );
                saw_truncated = true;
            }
            Err(
                StoreError::BadHeader { .. }
                | StoreError::BadRecord { .. }
                | StoreError::Corrupt { .. },
            ) => {}
            Err(other) => panic!("unexpected error class for a truncation: {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(saw_truncated, "no cut ever tripped the truncation detector");
}

#[test]
fn a_missing_file_and_a_foreign_file_are_typed_errors() {
    let path = scratch("missing");
    let _ = std::fs::remove_file(&path);
    match SnapshotStore::open(&path) {
        Err(e @ StoreError::Io { .. }) => assert!(!remediation(&e).is_empty()),
        other => panic!("expected a typed io error, got {other:?}"),
    }
    std::fs::write(&path, b"not a snapshot store at all\n").expect("write foreign file");
    match SnapshotStore::open(&path) {
        Err(e @ StoreError::BadHeader { .. }) => {
            assert!(e.to_string().contains("not a snapshot store"));
        }
        other => panic!("expected a bad-header error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Each block's byte range in a store image, in file order: from its
/// opener line through its `end` line.
fn block_ranges(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let mut pos = lines.next().map_or(0, <[u8]>::len); // the header
    let mut start = pos;
    let mut out = Vec::new();
    for line in lines {
        pos += line.len();
        if line.starts_with(b"end ") {
            out.push(start..pos);
            start = pos;
        }
    }
    out
}

/// Every read path that reaches each block, in file order: the block's
/// version plus one rendered result per path (`checkpoint` and the
/// `AS OF` image's answers for a checkpoint, `serve_state` for a
/// serve-state record).
fn read_every_version(store: &SnapshotStore) -> Vec<(u64, Vec<Result<String, StoreError>>)> {
    let query =
        SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot);
    let rows = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Regular);
    store
        .versions()
        .into_iter()
        .map(|info| {
            let reads = match (info.kind, info.tick) {
                (RecordKind::Checkpoint, Some(tick)) => vec![
                    store.checkpoint(info.version).map(|cp| format!("{cp:?}")),
                    store.checkpoint_as_of(tick).map(|(version, image)| {
                        let positions: Vec<_> = image.positions().collect();
                        format!(
                            "{version} {} {positions:?} {:?} {:?}",
                            image.tick(),
                            image.execute(&query, NodeId(0)),
                            image.execute(&rows, NodeId(0)),
                        )
                    }),
                ],
                _ => vec![store
                    .serve_state(info.version)
                    .map(|rec| format!("{rec:?}"))],
            };
            (info.version, reads)
        })
        .collect()
}

/// One stored block: its version, byte range, and the versions of the
/// blocks a read of it reaches, in read order — the block itself for a
/// serve state, the chain for a checkpoint.
struct Block {
    version: u64,
    range: Range<usize>,
    keyframe: bool,
    reads: Vec<u64>,
}

/// A pristine store written to `path` and opened, with its blocks. The
/// chains follow the format's rule — the i-th checkpoint block is a
/// keyframe exactly when `i % KEYFRAME_INTERVAL == 0` — and must agree
/// with the bases the store read at `open`.
fn open_pristine(bytes: &[u8], path: &PathBuf) -> (SnapshotStore, Vec<Block>) {
    std::fs::write(path, bytes).expect("write pristine image");
    let store = SnapshotStore::open(path).expect("pristine store opens");
    let mut blocks = Vec::new();
    let mut chain: Vec<u64> = Vec::new();
    let mut checkpoints = 0usize;
    for (info, range) in store.versions().into_iter().zip(block_ranges(bytes)) {
        let (keyframe, reads) = match info.kind {
            RecordKind::Checkpoint => {
                let keyframe = checkpoints.is_multiple_of(KEYFRAME_INTERVAL);
                assert_eq!(
                    info.base,
                    (!keyframe).then(|| chain.last().copied()).flatten()
                );
                if keyframe {
                    chain.clear();
                }
                chain.push(info.version);
                checkpoints += 1;
                (keyframe, chain.clone())
            }
            RecordKind::ServeState => (false, vec![info.version]),
        };
        blocks.push(Block {
            version: info.version,
            range,
            keyframe,
            reads,
        });
    }
    (store, blocks)
}

#[test]
fn bit_flips_after_open_fail_the_versions_whose_chain_holds_their_block() {
    let (bytes, versions) = pristine("late-flip");
    let path = scratch("late-flip");
    let (store, blocks) = open_pristine(&bytes, &path);
    assert_eq!(blocks.len(), versions);
    let clean = read_every_version(&store);
    let clean_report = store.verify().expect("pristine store verifies");
    assert_eq!(clean_report.keyframes, 2);
    assert!(clean.iter().flat_map(|(_, r)| r).all(Result::is_ok));

    let mut rng = DetRng::seed_from_u64(0x1A7E_F11B);
    let mut in_blocks = 0usize;
    let (mut keyframe_fanout, mut delta_fanout) = (false, false);
    for _ in 0..LATE_FLIPS {
        let (store, _) = open_pristine(&bytes, &path);
        let mut damaged = bytes.clone();
        let byte = rng.random_range(0..damaged.len() as u64) as usize;
        damaged[byte] ^= 1 << rng.random_range(0..8u32);
        std::fs::write(&path, &damaged).expect("damage the file under the open store");

        // Only the versions whose reads reach the block holding the
        // flipped byte may fail, and each must fail as `Corrupt`,
        // naming that block's version and offset: CRC-32 catches every
        // single-bit error in the body, and the seal check catches any
        // change to the `end` line.
        let hit = blocks.iter().find(|b| b.range.contains(&byte));
        let expected = hit.map(|b| StoreError::Corrupt {
            version: b.version,
            offset: b.range.start as u64,
        });
        in_blocks += usize::from(hit.is_some());
        let mut failed = 0usize;
        for ((version, got), (block, (_, want))) in read_every_version(&store)
            .into_iter()
            .zip(blocks.iter().zip(&clean))
        {
            assert_eq!(version, block.version);
            let reached = hit.filter(|h| block.reads.contains(&h.version));
            failed += usize::from(reached.is_some());
            for (got, want) in got.into_iter().zip(want) {
                match (reached, &expected) {
                    (Some(_), Some(err)) => {
                        assert_eq!(
                            got.as_ref(),
                            Err(err),
                            "flip at byte {byte}, version {version}"
                        );
                        assert!(!remediation(err).is_empty());
                    }
                    _ => assert_eq!(&got, want, "flip at byte {byte} changed version {version}"),
                }
            }
        }
        if let Some(h) = hit.filter(|_| failed > 1) {
            if h.keyframe {
                keyframe_fanout = true;
            } else {
                delta_fanout = true;
            }
        }
        match expected {
            Some(err) => assert_eq!(store.verify(), Err(err), "flip at byte {byte}"),
            None => assert_eq!(store.verify().as_ref(), Ok(&clean_report)),
        }
    }
    assert!(
        in_blocks * 10 >= LATE_FLIPS * 9,
        "only {in_blocks}/{LATE_FLIPS} flips landed inside a block"
    );
    assert!(
        keyframe_fanout && delta_fanout,
        "no flip failed later versions through a keyframe ({keyframe_fanout}) or a delta ({delta_fanout})"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cuts_after_open_fail_every_read_past_the_cut() {
    let (bytes, _) = pristine("late-cut");
    let path = scratch("late-cut");
    let (store, blocks) = open_pristine(&bytes, &path);
    let clean = read_every_version(&store);
    let block_of = |version: u64| {
        blocks
            .iter()
            .find(|b| b.version == version)
            .expect("every version has a block")
    };

    let mut rng = DetRng::seed_from_u64(0x01A7_EC07);
    let mut saw_cut_block = false;
    let mut saw_keyframe_cut = false;
    for _ in 0..LATE_CUTS {
        let (store, _) = open_pristine(&bytes, &path);
        let len = rng.random_range(0..bytes.len() as u64) as usize;
        std::fs::write(&path, &bytes[..len]).expect("cut the file under the open store");

        for ((version, got), (block, (_, want))) in read_every_version(&store)
            .into_iter()
            .zip(blocks.iter().zip(&clean))
        {
            assert_eq!(version, block.version);
            // A read fails at the first block it reaches past the cut:
            // a cut inside a keyframe fails every later version of its
            // chain, naming the keyframe.
            let first_cut = block
                .reads
                .iter()
                .map(|&v| block_of(v))
                .find(|b| b.range.end > len);
            for (got, want) in got.into_iter().zip(want) {
                match first_cut {
                    None => assert_eq!(&got, want, "a cut at {len} changed version {version}"),
                    Some(cut) => {
                        saw_cut_block = true;
                        if cut.keyframe && cut.version != version && cut.range.start < len {
                            saw_keyframe_cut = true;
                        }
                        match got {
                            Err(StoreError::Truncated { offset }) => {
                                assert_eq!(offset, cut.range.start as u64, "cut at {len}");
                            }
                            Err(StoreError::Io { .. }) => {}
                            other => {
                                panic!("a cut at {len} read version {version} as {other:?}")
                            }
                        }
                    }
                }
            }
        }
        let first_cut = blocks.iter().find(|b| b.range.end > len);
        match (store.verify(), first_cut) {
            (Ok(_), None) => {}
            (Err(StoreError::Truncated { offset }), Some(b)) => {
                assert_eq!(offset, b.range.start as u64, "cut at {len}");
            }
            (Err(StoreError::Io { .. }), Some(_)) => {}
            (other, _) => panic!("verify after a cut at {len} returned {other:?}"),
        }
    }
    assert!(saw_cut_block, "no cut ever reached a block");
    assert!(
        saw_keyframe_cut,
        "no cut inside a keyframe failed a later version of its chain"
    );
    let _ = std::fs::remove_file(&path);
}
