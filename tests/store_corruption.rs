//! Damaged-store negative tests: random bit flips and truncations
//! against a real store file must surface as *typed* [`StoreError`]s
//! carrying the offending version/offset — never a panic, and never a
//! silent wrong answer. A mutation-style liveness check keeps the
//! gate honest: across the randomized sweep every major detector
//! (CRC mismatch, truncation, malformed record) must actually fire,
//! so a regression that quietly stops detecting damage fails here
//! even though each individual case would still "pass".

use snapshot_bench::RandomWalkSetup;
use snapshot_queries::core::SensorNetwork;
use snapshot_queries::netsim::rng::{DetRng, RngExt};
use snapshot_queries::store::{remediation, SnapshotStore, StoreError};
use std::path::PathBuf;

/// Bit-flip trials (one flipped bit per trial).
const FLIPS: usize = 160;

/// Truncation trials (one cut per trial).
const CUTS: usize = 60;

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

/// A pristine two-checkpoint store plus one serve-state record, with
/// its bytes in memory. Each caller passes its own `label`: the tests
/// run in parallel, and a shared file would be deleted under one
/// test while the other is still writing it.
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
    sn.advance(4);
    store.append_checkpoint(&sn.checkpoint()).expect("append");
    let bytes = std::fs::read(&path).expect("read store");
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
