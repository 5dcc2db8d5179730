//! The append-only store: an ordered sequence of CRC-guarded blocks
//! on disk, plus the time-travel lookups the query layer plans
//! against.

use crate::error::StoreError;
use crate::format::{self, DecodedCheckpoint, RecordKind, ServeStateRecord, HEADER};
use snapshot_core::checkpoint::{CheckpointState, FrozenCheckpoint};
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// One block as it sits in the file: enough structure to answer
/// `versions`/`as_of` lookups without re-decoding, and where to read
/// the block back from. The text itself stays on disk.
#[derive(Debug, Clone)]
struct Entry {
    version: u64,
    kind: RecordKind,
    /// Checkpoint tick (`None` for serve-state blocks).
    tick: Option<u64>,
    /// Byte offset of the block's first line in the file.
    offset: u64,
    /// Block length in bytes, `end` line included.
    len: u64,
    /// The checkpoint's query image, built by the first time-travel
    /// lookup that reaches it. A sealed block never changes, so the
    /// image never goes stale; clones of the store share it.
    image: OnceLock<Arc<FrozenCheckpoint>>,
}

impl Entry {
    fn new(version: u64, kind: RecordKind, tick: Option<u64>, offset: u64, len: u64) -> Self {
        Entry {
            version,
            kind,
            tick,
            offset,
            len,
            image: OnceLock::new(),
        }
    }
}

/// A summary row of one stored block, as reported by
/// [`SnapshotStore::versions`] and the `snapshot-store info` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    /// Monotone block version.
    pub version: u64,
    /// Block kind.
    pub kind: RecordKind,
    /// Checkpoint tick (`None` for serve-state blocks).
    pub tick: Option<u64>,
}

/// An append-only, versioned snapshot store backed by one file.
///
/// Writes go through [`append_checkpoint`] / [`append_serve_state`],
/// which extend the file in place. The store keeps each block's offset,
/// not its text: every read goes back to the file and checks the
/// block's CRC seal again before decoding, so damage made after
/// [`open`] — or a removed file — surfaces as a typed [`StoreError`],
/// never a panic or a silent wrong answer. The store never rewrites
/// existing blocks, so a crash mid-append can at worst truncate the
/// tail — which [`open`] and [`verify`] report the same way.
///
/// [`append_checkpoint`]: SnapshotStore::append_checkpoint
/// [`append_serve_state`]: SnapshotStore::append_serve_state
/// [`open`]: SnapshotStore::open
/// [`verify`]: SnapshotStore::verify
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    path: PathBuf,
    entries: Vec<Entry>,
    next_version: u64,
}

impl SnapshotStore {
    /// Create a fresh store at `path`, truncating anything there.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut contents = String::with_capacity(HEADER.len() + 1);
        contents.push_str(HEADER);
        contents.push('\n');
        write_file(&path, contents.as_bytes(), "create")?;
        Ok(SnapshotStore {
            path,
            entries: Vec::new(),
            next_version: 1,
        })
    }

    /// Open an existing store, checking the header, every block's
    /// structure and CRC, and the version ordering. The store keeps
    /// each block's offset and length, not its text.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let contents = fs::read_to_string(&path).map_err(io_error("read"))?;
        let entries = scan(&contents)?;
        let next_version = entries.last().map_or(1, |e| e.version + 1);
        Ok(SnapshotStore {
            path,
            entries,
            next_version,
        })
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append a checkpoint, returning the version it was assigned.
    pub fn append_checkpoint(&mut self, cp: &CheckpointState) -> Result<u64, StoreError> {
        let version = self.next_version;
        if let Some(last_tick) = self.entries.iter().rev().find_map(|e| e.tick) {
            if cp.tick < last_tick {
                return Err(StoreError::Inconsistent {
                    version,
                    detail: format!(
                        "checkpoint tick {} regresses below stored tick {last_tick}",
                        cp.tick
                    ),
                });
            }
        }
        let text = format::encode_checkpoint(version, cp);
        self.append_block(RecordKind::Checkpoint, Some(cp.tick), &text)
    }

    /// Append a query-service state record, returning its version.
    pub fn append_serve_state(&mut self, rec: &ServeStateRecord) -> Result<u64, StoreError> {
        if !self
            .entries
            .iter()
            .any(|e| e.kind == RecordKind::Checkpoint && e.version == rec.checkpoint_version)
        {
            return Err(StoreError::NoSuchVersion {
                version: rec.checkpoint_version,
            });
        }
        let text = format::encode_serve_state(self.next_version, rec);
        self.append_block(RecordKind::ServeState, None, &text)
    }

    /// Write one encoded block at the end of the file and record where
    /// it sits, returning its version.
    fn append_block(
        &mut self,
        kind: RecordKind,
        tick: Option<u64>,
        text: &str,
    ) -> Result<u64, StoreError> {
        let version = self.next_version;
        let offset = self
            .entries
            .last()
            .map_or(HEADER.len() as u64 + 1, |e| e.offset + e.len);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(io_error("write"))?;
        file.write_all(text.as_bytes()).map_err(io_error("write"))?;
        self.entries
            .push(Entry::new(version, kind, tick, offset, text.len() as u64));
        self.next_version = version + 1;
        Ok(version)
    }

    /// Summary rows for every stored block, in file order.
    pub fn versions(&self) -> Vec<VersionInfo> {
        self.entries
            .iter()
            .map(|e| VersionInfo {
                version: e.version,
                kind: e.kind,
                tick: e.tick,
            })
            .collect()
    }

    /// Decode the checkpoint stored under `version`.
    pub fn checkpoint(&self, version: u64) -> Result<CheckpointState, StoreError> {
        self.decode_checkpoint_entry(version).map(|d| d.state)
    }

    /// The latest checkpoint whose tick is `<= tick`, as its query
    /// image — the `AS OF` lookup.
    pub fn checkpoint_as_of(&self, tick: u64) -> Result<(u64, Arc<FrozenCheckpoint>), StoreError> {
        let hit = self
            .entries
            .iter()
            .rev()
            .find(|e| e.kind == RecordKind::Checkpoint && e.tick.is_some_and(|t| t <= tick))
            .ok_or(StoreError::NoVersionAsOf { tick })?;
        Ok((hit.version, self.image(hit)?))
    }

    /// Every checkpoint with `from <= tick <= to`, oldest first, as
    /// query images — the `BETWEEN` lookup. Empty when no version
    /// falls in the window.
    pub fn checkpoints_between(
        &self,
        from: u64,
        to: u64,
    ) -> Result<Vec<(u64, Arc<FrozenCheckpoint>)>, StoreError> {
        self.entries
            .iter()
            .filter(|e| {
                e.kind == RecordKind::Checkpoint && e.tick.is_some_and(|t| from <= t && t <= to)
            })
            .map(|e| Ok((e.version, self.image(e)?)))
            .collect()
    }

    /// The query image of checkpoint `entry`, built on first use and
    /// kept. A failed build is not kept; like a checkpoint that fails
    /// [`verify`](SnapshotStore::verify)'s validation, it is
    /// [`StoreError::Inconsistent`].
    fn image(&self, entry: &Entry) -> Result<Arc<FrozenCheckpoint>, StoreError> {
        if let Some(image) = entry.image.get() {
            return Ok(Arc::clone(image));
        }
        let decoded = self.decode_checkpoint_entry(entry.version)?;
        let image =
            FrozenCheckpoint::new(&decoded.state).map_err(|e| StoreError::Inconsistent {
                version: entry.version,
                detail: e.to_string(),
            })?;
        Ok(Arc::clone(entry.image.get_or_init(|| Arc::new(image))))
    }

    /// The newest checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Result<Option<(u64, CheckpointState)>, StoreError> {
        match self
            .entries
            .iter()
            .rev()
            .find(|e| e.kind == RecordKind::Checkpoint)
        {
            None => Ok(None),
            Some(e) => Ok(Some((e.version, self.checkpoint(e.version)?))),
        }
    }

    /// The newest serve-state record, if any — what restart recovery
    /// rehydrates from.
    pub fn latest_serve_state(&self) -> Result<Option<(u64, ServeStateRecord)>, StoreError> {
        let newest = self
            .entries
            .iter()
            .rev()
            .find(|e| e.kind == RecordKind::ServeState)
            .map(|e| e.version);
        match newest {
            None => Ok(None),
            Some(version) => self.serve_state(version),
        }
    }

    /// Decode the serve-state record stored under `version`, `None`
    /// when that version holds a checkpoint instead.
    pub fn serve_state(&self, version: u64) -> Result<Option<(u64, ServeStateRecord)>, StoreError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.version == version)
            .ok_or(StoreError::NoSuchVersion { version })?;
        if entry.kind != RecordKind::ServeState {
            return Ok(None);
        }
        let body = self.read_body(entry)?;
        let (decoded_version, rec) = format::decode_serve_state(&body_lines(&body))?;
        if decoded_version != version {
            return Err(StoreError::Inconsistent {
                version,
                detail: "block version disagrees with its end line".into(),
            });
        }
        Ok(Some((version, rec)))
    }

    /// Decode every block and re-encode it to a fresh store at
    /// `path`. Because the codec is canonical (`encode ∘ decode` is
    /// the identity, asserted by the round-trip tests), the rebuilt
    /// file is byte-identical to the source — the property the
    /// `store_roundtrip` suite checks over hundreds of random
    /// deployments. `path` must not be this store's own file: creating
    /// the output truncates it, and the blocks are read from there.
    pub fn rebuild(&self, path: impl AsRef<Path>) -> Result<SnapshotStore, StoreError> {
        if let (Ok(out), Ok(source)) = (
            fs::canonicalize(path.as_ref()),
            fs::canonicalize(&self.path),
        ) {
            if out == source {
                return Err(StoreError::Io {
                    op: "create",
                    detail: "the rebuild target is the source store itself".into(),
                });
            }
        }
        let mut out = SnapshotStore::create(path)?;
        for e in &self.entries {
            match e.kind {
                RecordKind::Checkpoint => {
                    let decoded = self.decode_checkpoint_entry(e.version)?;
                    out.append_checkpoint(&decoded.state)?;
                }
                RecordKind::ServeState => {
                    let body = self.read_body(e)?;
                    let (_, rec) = format::decode_serve_state(&body_lines(&body))?;
                    out.append_serve_state(&rec)?;
                }
            }
        }
        Ok(out)
    }

    pub(crate) fn decode_checkpoint_entry(
        &self,
        version: u64,
    ) -> Result<DecodedCheckpoint, StoreError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.version == version && e.kind == RecordKind::Checkpoint)
            .ok_or(StoreError::NoSuchVersion { version })?;
        let body = self.read_body(entry)?;
        let decoded = format::decode_checkpoint(&body_lines(&body))?;
        if decoded.version != version {
            return Err(StoreError::Inconsistent {
                version,
                detail: "block version disagrees with its end line".into(),
            });
        }
        Ok(decoded)
    }

    /// Read `entry`'s block back from the file and check its seal
    /// again — the file may have changed since `open` — returning the
    /// body, `end` line excluded. A short read is `Truncated`, a
    /// broken seal `Corrupt`.
    fn read_body(&self, entry: &Entry) -> Result<String, StoreError> {
        let mut file = fs::File::open(&self.path).map_err(io_error("read"))?;
        file.seek(SeekFrom::Start(entry.offset))
            .map_err(io_error("read"))?;
        let mut block = Vec::with_capacity(usize::try_from(entry.len).unwrap_or(0));
        file.take(entry.len)
            .read_to_end(&mut block)
            .map_err(io_error("read"))?;
        if block.len() as u64 != entry.len {
            return Err(StoreError::Truncated {
                offset: entry.offset,
            });
        }
        let corrupt = || StoreError::Corrupt {
            version: entry.version,
            offset: entry.offset,
        };
        let body_len = format::sealed_body(&block, entry.version)
            .ok_or_else(corrupt)?
            .len();
        block.truncate(body_len);
        String::from_utf8(block).map_err(|_| corrupt())
    }

    pub(crate) fn entry_meta(
        &self,
    ) -> impl Iterator<Item = (u64, RecordKind, Option<u64>, u64)> + '_ {
        self.entries
            .iter()
            .map(|e| (e.version, e.kind, e.tick, e.offset))
    }
}

/// Block body lines with their 1-based line numbers. Numbering
/// restarts at the block's first line: blocks know their byte offset,
/// not their line offset, so errors count from the block start while
/// offsets stay exact.
fn body_lines(body: &str) -> Vec<(u64, &str)> {
    body.lines()
        .enumerate()
        .map(|(i, l)| (i as u64 + 1, l))
        .collect()
}

fn io_error(op: &'static str) -> impl Fn(std::io::Error) -> StoreError {
    move |e| StoreError::Io {
        op,
        detail: e.to_string(),
    }
}

fn write_file(path: &Path, bytes: &[u8], op: &'static str) -> Result<(), StoreError> {
    fs::write(path, bytes).map_err(io_error(op))
}

/// Structural scan of a whole file: header, block boundaries, seals
/// and version ordering. Full per-line decoding happens lazily.
fn scan(contents: &str) -> Result<Vec<Entry>, StoreError> {
    let mut rest = contents;
    let mut offset = 0u64;
    let mut line_no = 0u64;

    let header = take_line(&mut rest, &mut offset, &mut line_no);
    match header {
        Some(line) if line == HEADER => {}
        other => {
            return Err(StoreError::BadHeader {
                found: other.unwrap_or_default().to_string(),
            })
        }
    }

    let mut entries: Vec<Entry> = Vec::new();
    loop {
        let block_offset = offset;
        let Some(opener) = take_line(&mut rest, &mut offset, &mut line_no) else {
            break;
        };
        let opener_line = line_no;
        let mut words = opener.split_ascii_whitespace();
        let kind = match words.next() {
            Some("version") => RecordKind::Checkpoint,
            Some("serve") => RecordKind::ServeState,
            _ => {
                return Err(StoreError::BadRecord {
                    line: opener_line,
                    detail: format!("expected a version or serve line, got {opener:?}"),
                })
            }
        };
        let version =
            words
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .ok_or(StoreError::BadRecord {
                    line: opener_line,
                    detail: "block opener has no version".into(),
                })?;
        let tick = match kind {
            RecordKind::Checkpoint => {
                let mut tick = None;
                let mut saw_tick_word = false;
                for w in words {
                    if saw_tick_word {
                        tick = w.parse::<u64>().ok();
                        break;
                    }
                    saw_tick_word = w == "tick";
                }
                Some(tick.ok_or(StoreError::BadRecord {
                    line: opener_line,
                    detail: "checkpoint opener has no tick".into(),
                })?)
            }
            RecordKind::ServeState => None,
        };

        // Walk to the end line.
        let mut end_line: Option<&str> = None;
        while let Some(line) = take_line(&mut rest, &mut offset, &mut line_no) {
            if line.starts_with("end ") {
                end_line = Some(line);
                break;
            }
        }
        let Some(end_line) = end_line else {
            return Err(StoreError::Truncated {
                offset: block_offset,
            });
        };
        let end_line_no = line_no;

        let end_version = end_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|w| w.parse::<u64>().ok())
            .ok_or(StoreError::BadRecord {
                line: end_line_no,
                detail: "end line has no version".into(),
            })?;
        if end_version != version {
            return Err(StoreError::BadRecord {
                line: end_line_no,
                detail: format!("end line names version {end_version}, block is {version}"),
            });
        }

        // The same seal check every later read of the block repeats.
        let block = contents
            .get(block_offset as usize..offset as usize)
            .unwrap_or_default();
        if format::sealed_body(block.as_bytes(), version).is_none() {
            return Err(StoreError::Corrupt {
                version,
                offset: block_offset,
            });
        }

        if let Some(prev) = entries.last() {
            if version <= prev.version {
                return Err(StoreError::VersionOrder {
                    version,
                    previous: prev.version,
                });
            }
        }

        entries.push(Entry::new(
            version,
            kind,
            tick,
            block_offset,
            offset - block_offset,
        ));
    }
    Ok(entries)
}

/// Pop one `\n`-terminated line off `rest`, advancing the byte offset
/// and line counter. A final unterminated fragment counts as a line
/// (its missing terminator surfaces later as a truncation or CRC
/// error).
fn take_line<'a>(rest: &mut &'a str, offset: &mut u64, line_no: &mut u64) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    *line_no += 1;
    match rest.split_once('\n') {
        Some((line, tail)) => {
            *offset += line.len() as u64 + 1;
            *rest = tail;
            Some(line)
        }
        None => {
            let line = *rest;
            *offset += line.len() as u64;
            *rest = "";
            Some(line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{ActiveRecord, PendingRecord};
    use snapshot_core::cache::CachePolicy;
    use snapshot_core::checkpoint::NodeCheckpoint;
    use snapshot_core::sensor::Mode;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("snapshot-store-test-{}-{name}", std::process::id()));
        p
    }

    fn small_checkpoint(tick: u64) -> CheckpointState {
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
    fn create_append_reopen_round_trips() {
        let path = tmp("roundtrip");
        let mut store = SnapshotStore::create(&path).unwrap();
        let v1 = store.append_checkpoint(&small_checkpoint(40)).unwrap();
        let v2 = store.append_checkpoint(&small_checkpoint(50)).unwrap();
        assert_eq!((v1, v2), (1, 2));

        let reopened = SnapshotStore::open(&path).unwrap();
        assert_eq!(reopened.versions().len(), 2);
        assert_eq!(reopened.checkpoint(1).unwrap(), small_checkpoint(40));
        assert_eq!(reopened.checkpoint(2).unwrap(), small_checkpoint(50));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn as_of_picks_the_latest_version_at_or_before_the_tick() {
        let path = tmp("asof");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        store.append_checkpoint(&small_checkpoint(50)).unwrap();
        store.append_checkpoint(&small_checkpoint(60)).unwrap();

        assert_eq!(store.checkpoint_as_of(55).unwrap().0, 2);
        assert_eq!(store.checkpoint_as_of(50).unwrap().0, 2);
        assert_eq!(store.checkpoint_as_of(1000).unwrap().0, 3);
        assert_eq!(
            store.checkpoint_as_of(39).err(),
            Some(StoreError::NoVersionAsOf { tick: 39 })
        );
        let between = store.checkpoints_between(45, 60).unwrap();
        assert_eq!(
            between.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(store.checkpoints_between(0, 10).unwrap().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn each_version_builds_one_image_on_first_use_and_shares_it() {
        let path = tmp("images");
        let mut store = SnapshotStore::create(&path).unwrap();
        for tick in [40, 50, 60] {
            store.append_checkpoint(&small_checkpoint(tick)).unwrap();
        }
        let built = |s: &SnapshotStore| -> Vec<u64> {
            s.entries
                .iter()
                .filter(|e| e.image.get().is_some())
                .map(|e| e.version)
                .collect()
        };
        assert!(built(&store).is_empty(), "appends build no image");

        let (v, first) = store.checkpoint_as_of(55).unwrap();
        let (_, again) = store.checkpoint_as_of(50).unwrap();
        assert_eq!(v, 2);
        assert!(Arc::ptr_eq(&first, &again), "one image per version");
        assert_eq!(first.tick(), 50);
        assert_eq!(
            built(&store),
            vec![2],
            "a version never queried holds no image"
        );

        // BETWEEN reuses the image AS OF built and builds the rest.
        let between = store.checkpoints_between(40, 60).unwrap();
        assert_eq!(
            between.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(Arc::ptr_eq(&between[1].1, &first));
        assert_eq!(built(&store), vec![1, 2, 3]);

        // A clone shares every image built before it.
        let clone = store.clone();
        let (_, cloned) = clone.checkpoint_as_of(50).unwrap();
        assert!(Arc::ptr_eq(&cloned, &first));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reads_go_back_to_the_file() {
        let path = tmp("reads");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        store.append_checkpoint(&small_checkpoint(50)).unwrap();
        store.checkpoint_as_of(40).unwrap();
        fs::remove_file(&path).unwrap();

        // A built image needs no read; everything else does.
        assert_eq!(store.checkpoint_as_of(45).unwrap().1.tick(), 40);
        match store.checkpoint_as_of(50) {
            Err(StoreError::Io { op: "read", .. }) => {}
            other => panic!("expected a read error, got {other:?}"),
        }
        assert!(matches!(store.checkpoint(1), Err(StoreError::Io { .. })));
        assert!(matches!(store.verify(), Err(StoreError::Io { .. })));
    }

    #[test]
    fn serve_state_round_trips_and_requires_its_checkpoint() {
        let path = tmp("serve");
        let mut store = SnapshotStore::create(&path).unwrap();
        let rec = ServeStateRecord {
            checkpoint_version: 1,
            next_ticket: 3,
            stats: [2, 0, 2, 1, 1, 0, 2, 0, 2, 1],
            pending: vec![PendingRecord {
                ticket: 2,
                tenant: 0,
                submitted_at: 41,
                sql: "select avg(value) from region".into(),
            }],
            active: vec![ActiveRecord {
                due: 45,
                ticket: 1,
                tenant: 0,
                submitted_at: 40,
                first_result_at: None,
                interval: 5,
                remaining: 3,
                epochs_total: 3,
                sql: "select min(value) from region".into(),
            }],
        };
        // No checkpoint yet: the reference must be rejected.
        assert_eq!(
            store.append_serve_state(&rec),
            Err(StoreError::NoSuchVersion { version: 1 })
        );
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        store.append_serve_state(&rec).unwrap();

        let reopened = SnapshotStore::open(&path).unwrap();
        let (version, got) = reopened.latest_serve_state().unwrap().unwrap();
        assert_eq!(version, 2);
        assert_eq!(got, rec);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rebuild_is_byte_identical() {
        let src = tmp("rebuild-src");
        let dst = tmp("rebuild-dst");
        let mut store = SnapshotStore::create(&src).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        store.append_checkpoint(&small_checkpoint(50)).unwrap();
        store
            .append_serve_state(&ServeStateRecord {
                checkpoint_version: 2,
                next_ticket: 1,
                stats: [0; 10],
                pending: Vec::new(),
                active: Vec::new(),
            })
            .unwrap();

        store.rebuild(&dst).unwrap();
        assert_eq!(fs::read(&src).unwrap(), fs::read(&dst).unwrap());

        // Rebuilding onto the source would truncate the file its
        // blocks are read from.
        match store.rebuild(&src) {
            Err(StoreError::Io { op: "create", .. }) => {}
            other => panic!("expected a refused rebuild, got {other:?}"),
        }
        assert_eq!(fs::read(&src).unwrap(), fs::read(&dst).unwrap());
        let _ = fs::remove_file(&src);
        let _ = fs::remove_file(&dst);
    }

    #[test]
    fn bit_flips_and_truncation_surface_as_typed_errors() {
        let path = tmp("damage");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        let clean = fs::read(&path).unwrap();

        // Flip a byte inside the block body.
        let mut bytes = clean.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match SnapshotStore::open(&path) {
            Err(StoreError::Corrupt { version: 1, .. }) | Err(StoreError::BadRecord { .. }) => {}
            other => panic!("expected corruption, got {other:?}"),
        }

        // Truncate mid-block: deep enough to lose the whole end line.
        let cut = clean.len() - 25;
        fs::write(&path, &clean[..cut]).unwrap();
        match SnapshotStore::open(&path) {
            Err(StoreError::Truncated { .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }

        // Wrong header.
        fs::write(&path, b"not a store\n").unwrap();
        match SnapshotStore::open(&path) {
            Err(StoreError::BadHeader { found }) => assert_eq!(found, "not a store"),
            other => panic!("expected bad header, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn regressing_ticks_are_rejected() {
        let path = tmp("tick-order");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(50)).unwrap();
        match store.append_checkpoint(&small_checkpoint(40)) {
            Err(StoreError::Inconsistent { version: 2, detail }) => {
                assert!(detail.contains("regresses"), "detail: {detail}");
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
