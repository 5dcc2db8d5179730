//! The append-only store: an ordered sequence of CRC-guarded blocks
//! on disk, plus the time-travel lookups the query layer plans
//! against.

use crate::error::StoreError;
use crate::format::{
    self, Changes, DecodedCheckpoint, DecodedDelta, RecordKind, ServeStateRecord, HEADER,
    KEYFRAME_INTERVAL,
};
use snapshot_core::checkpoint::{CheckpointState, ChildParts, FrozenCheckpoint, QualitySummary};
use snapshot_core::CoreError;
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
    /// The version a delta is written against (`None` for keyframes
    /// and serve-state blocks).
    base: Option<u64>,
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
    fn new(
        version: u64,
        kind: RecordKind,
        tick: Option<u64>,
        base: Option<u64>,
        offset: u64,
        len: u64,
    ) -> Self {
        Entry {
            version,
            kind,
            tick,
            base,
            offset,
            len,
            image: OnceLock::new(),
        }
    }

    fn is_checkpoint(&self) -> bool {
        self.kind == RecordKind::Checkpoint
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
    /// For a delta checkpoint, the version it is written against;
    /// `None` for a keyframe or a serve-state block.
    pub base: Option<u64>,
    /// Block size in bytes, `end` line included.
    pub bytes: u64,
}

/// One block as [`SnapshotStore::walk`] hands it out.
pub(crate) enum Walked<'a> {
    /// A checkpoint block, its chain rolled forward to it.
    Checkpoint {
        version: u64,
        keyframe: bool,
        state: &'a CheckpointState,
        stored_quality: QualitySummary,
    },
    /// A serve-state block.
    Serve {
        version: u64,
        record: ServeStateRecord,
    },
}

/// An append-only, versioned snapshot store backed by one file.
///
/// Writes go through [`append_checkpoint`] / [`append_serve_state`],
/// which extend the file in place. A checkpoint is written as a
/// keyframe or as a delta against the checkpoint before it (see
/// [`format`](mod@crate::format)). The store keeps each block's offset,
/// not its text: every read goes back to the file and checks the seal
/// of each block it needs again before decoding, so damage made after
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
    /// The newest checkpoint and its version, as this handle appended
    /// it — or, after [`open`](SnapshotStore::open), as read back from
    /// its chain by the first append: what the next delta is written
    /// against.
    last: Option<(u64, CheckpointState)>,
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
            last: None,
        })
    }

    /// Open an existing store, checking the header, every block's
    /// structure and CRC, the version ordering, and that keyframes and
    /// deltas sit where the format places them, each delta naming the
    /// checkpoint just before it as its base. The store keeps each
    /// block's offset and length, not its text.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let contents = fs::read_to_string(&path).map_err(io_error("read"))?;
        let entries = scan(&contents)?;
        let next_version = entries.last().map_or(1, |e| e.version + 1);
        Ok(SnapshotStore {
            path,
            entries,
            next_version,
            last: None,
        })
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append a checkpoint, returning the version it was assigned. It
    /// is written as a keyframe when the file's checkpoint count is a
    /// multiple of [`KEYFRAME_INTERVAL`], and otherwise as a delta
    /// against the newest stored checkpoint. Every checkpoint of a
    /// store must validate and keep the deployment size, radio range
    /// and cache configuration of the one before it.
    pub fn append_checkpoint(&mut self, cp: &CheckpointState) -> Result<u64, StoreError> {
        let version = self.next_version;
        let inconsistent = |detail: String| StoreError::Inconsistent { version, detail };
        if let Some(last_tick) = self.entries.iter().rev().find_map(|e| e.tick) {
            if cp.tick < last_tick {
                return Err(inconsistent(format!(
                    "checkpoint tick {} regresses below stored tick {last_tick}",
                    cp.tick
                )));
            }
        }
        cp.validate().map_err(|e| inconsistent(e.to_string()))?;
        if self.last.is_none() {
            self.last = self.latest_checkpoint()?;
        }
        let position = self.entries.iter().filter(|e| e.is_checkpoint()).count();
        let (text, base, changes) = match &self.last {
            None => (format::encode_checkpoint(version, cp), None, None),
            Some((base_version, last)) => {
                if let Some(detail) = shape_change(last, cp) {
                    return Err(inconsistent(detail));
                }
                let changes = Changes::between(last, cp);
                if position.is_multiple_of(KEYFRAME_INTERVAL) {
                    (format::encode_checkpoint(version, cp), None, Some(changes))
                } else {
                    let text = format::encode_delta(version, *base_version, last, cp, &changes);
                    (text, Some(*base_version), Some(changes))
                }
            }
        };
        self.append_block(RecordKind::Checkpoint, Some(cp.tick), base, &text)?;
        match (&mut self.last, changes) {
            (Some((last_version, last)), Some(changes)) => {
                changes.roll_forward(last, cp);
                *last_version = version;
            }
            _ => self.last = Some((version, cp.clone())),
        }
        Ok(version)
    }

    /// Append a query-service state record, returning its version.
    pub fn append_serve_state(&mut self, rec: &ServeStateRecord) -> Result<u64, StoreError> {
        if !self
            .entries
            .iter()
            .any(|e| e.is_checkpoint() && e.version == rec.checkpoint_version)
        {
            return Err(StoreError::NoSuchVersion {
                version: rec.checkpoint_version,
            });
        }
        let text = format::encode_serve_state(self.next_version, rec);
        self.append_block(RecordKind::ServeState, None, None, &text)
    }

    /// Write one encoded block at the end of the file and record where
    /// it sits, returning its version.
    fn append_block(
        &mut self,
        kind: RecordKind,
        tick: Option<u64>,
        base: Option<u64>,
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
        self.entries.push(Entry::new(
            version,
            kind,
            tick,
            base,
            offset,
            text.len() as u64,
        ));
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
                base: e.base,
                bytes: e.len,
            })
            .collect()
    }

    /// The checkpoint stored under `version`, rebuilt from its chain.
    pub fn checkpoint(&self, version: u64) -> Result<CheckpointState, StoreError> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.version == version && e.is_checkpoint())
            .ok_or(StoreError::NoSuchVersion { version })?;
        self.read_state(idx)
    }

    /// The latest checkpoint whose tick is `<= tick`, as its query
    /// image — the `AS OF` lookup.
    pub fn checkpoint_as_of(&self, tick: u64) -> Result<(u64, Arc<FrozenCheckpoint>), StoreError> {
        let (idx, hit) = self
            .entries
            .iter()
            .enumerate()
            .rev()
            .find(|(_, e)| e.is_checkpoint() && e.tick.is_some_and(|t| t <= tick))
            .ok_or(StoreError::NoVersionAsOf { tick })?;
        Ok((hit.version, self.image(idx)?))
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
            .enumerate()
            .filter(|(_, e)| e.is_checkpoint() && e.tick.is_some_and(|t| from <= t && t <= to))
            .map(|(idx, e)| Ok((e.version, self.image(idx)?)))
            .collect()
    }

    /// The chain of the checkpoint at `idx`: the keyframe at or before
    /// it first, then each delta up to it.
    fn chain(&self, idx: usize) -> Vec<&Entry> {
        let mut chain = Vec::new();
        for e in self.entries.iter().take(idx + 1).rev() {
            if e.is_checkpoint() {
                chain.push(e);
                if e.base.is_none() {
                    break;
                }
            }
        }
        chain.reverse();
        chain
    }

    /// The query image of the checkpoint at `idx`, built on first use
    /// and kept. A keyframe's image is built from its block; a delta's
    /// is derived from its parent's image — built first, back to the
    /// newest image its chain already holds — sharing each part the
    /// delta leaves unchanged. Every block read on the way is checked
    /// again, so damage to any block of the chain fails the build. A
    /// failed build is not kept; like a checkpoint that fails
    /// [`verify`](SnapshotStore::verify)'s validation, it is
    /// [`StoreError::Inconsistent`].
    fn image(&self, idx: usize) -> Result<Arc<FrozenCheckpoint>, StoreError> {
        if let Some(image) = self.entries.get(idx).and_then(|e| e.image.get()) {
            return Ok(Arc::clone(image));
        }
        let chain = self.chain(idx);
        let built = chain.iter().rposition(|e| e.image.get().is_some());
        let mut blocks = chain.iter().skip(built.unwrap_or(0));
        let Some(first) = blocks.next() else {
            return Err(self.no_such_entry(idx));
        };
        let mut image = match first.image.get() {
            Some(image) => Arc::clone(image),
            None => {
                let decoded = self.read_keyframe(first)?;
                let image = FrozenCheckpoint::new(&decoded.state)
                    .map_err(|e| inconsistent(first.version, &e))?;
                Arc::clone(first.image.get_or_init(|| Arc::new(image)))
            }
        };
        for entry in blocks {
            let delta = self.read_delta(entry, image.len())?;
            let nodes = if delta.nodes.is_empty() {
                None
            } else {
                let mut nodes = image.node_checkpoints();
                delta.apply_nodes(&mut nodes)?;
                Some(nodes)
            };
            let child = image
                .derive(&ChildParts {
                    tick: delta.tick,
                    values: &delta.values,
                    alive: delta.alive.as_deref(),
                    topology: delta
                        .topology
                        .as_ref()
                        .map(|(pos, adj)| (pos.as_slice(), adj.as_slice())),
                    nodes: nodes.as_deref(),
                })
                .map_err(|e| inconsistent(entry.version, &e))?;
            image = Arc::clone(entry.image.get_or_init(|| Arc::new(child)));
        }
        Ok(image)
    }

    /// The newest checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Result<Option<(u64, CheckpointState)>, StoreError> {
        match self.entries.iter().rposition(Entry::is_checkpoint) {
            None => Ok(None),
            Some(idx) => {
                let state = self.read_state(idx)?;
                Ok(self.entries.get(idx).map(|e| (e.version, state)))
            }
        }
    }

    /// The newest serve-state record, if any — what restart recovery
    /// rehydrates from.
    pub fn latest_serve_state(&self) -> Result<Option<(u64, ServeStateRecord)>, StoreError> {
        let newest = self
            .entries
            .iter()
            .rev()
            .find(|e| e.kind == RecordKind::ServeState);
        match newest {
            None => Ok(None),
            Some(e) => Ok(Some((e.version, self.read_serve(e)?))),
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
        Ok(Some((version, self.read_serve(entry)?)))
    }

    /// Decode every block and re-encode it to a fresh store at
    /// `path`, walking each checkpoint chain once, forward. Because
    /// the codec is canonical (`encode ∘ decode` is the identity,
    /// asserted by the round-trip tests) and keyframes are placed by
    /// position, the rebuilt file is byte-identical to the source —
    /// the property the `store_roundtrip` suite checks over hundreds
    /// of random deployments. `path` must not be this store's own
    /// file: creating the output truncates it, and the blocks are read
    /// from there.
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
        self.walk(|block| {
            match block {
                Walked::Checkpoint { state, .. } => out.append_checkpoint(state)?,
                Walked::Serve { record, .. } => out.append_serve_state(&record)?,
            };
            Ok(())
        })?;
        Ok(out)
    }

    /// Read every block once, in file order, rolling each checkpoint
    /// chain forward as it goes, and hand each to `visit`. Stops at
    /// the first error, `visit`'s own included.
    pub(crate) fn walk(
        &self,
        mut visit: impl FnMut(Walked<'_>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut state = None;
        for entry in &self.entries {
            match entry.kind {
                RecordKind::Checkpoint => {
                    let stored_quality = self.step(entry, &mut state)?;
                    if let Some(state) = &state {
                        visit(Walked::Checkpoint {
                            version: entry.version,
                            keyframe: entry.base.is_none(),
                            state,
                            stored_quality,
                        })?;
                    }
                }
                RecordKind::ServeState => visit(Walked::Serve {
                    version: entry.version,
                    record: self.read_serve(entry)?,
                })?,
            }
        }
        Ok(())
    }

    /// The checkpoint at `idx`, rolled forward along its chain.
    fn read_state(&self, idx: usize) -> Result<CheckpointState, StoreError> {
        let mut state = None;
        for entry in self.chain(idx) {
            self.step(entry, &mut state)?;
        }
        state.ok_or_else(|| self.no_such_entry(idx))
    }

    /// The error for a checkpoint index with no chain — an index past
    /// the entries or a serve-state block's.
    fn no_such_entry(&self, idx: usize) -> StoreError {
        StoreError::NoSuchVersion {
            version: self
                .entries
                .get(idx)
                .map_or(self.next_version, |e| e.version),
        }
    }

    /// Read checkpoint block `entry` back and roll `state` over it: a
    /// keyframe replaces the state, a delta applies to it. Returns the
    /// block's stored quality flags.
    fn step(
        &self,
        entry: &Entry,
        state: &mut Option<CheckpointState>,
    ) -> Result<QualitySummary, StoreError> {
        match (entry.base, state.as_mut()) {
            (None, _) => {
                let decoded = self.read_keyframe(entry)?;
                *state = Some(decoded.state);
                Ok(decoded.stored_quality)
            }
            (Some(_), Some(state)) => {
                let delta = self.read_delta(entry, state.len())?;
                delta.apply(state)?;
                Ok(delta.stored_quality)
            }
            (Some(base), None) => Err(StoreError::Inconsistent {
                version: entry.version,
                detail: format!("delta against version {base}, whose checkpoint was not read"),
            }),
        }
    }

    fn read_keyframe(&self, entry: &Entry) -> Result<DecodedCheckpoint, StoreError> {
        let body = self.read_body(entry)?;
        let decoded = format::decode_checkpoint(&body_lines(&body))
            .map_err(|e| self.in_file_lines(entry, e))?;
        same_version(entry, decoded.version)?;
        Ok(decoded)
    }

    fn read_delta(&self, entry: &Entry, n: usize) -> Result<DecodedDelta, StoreError> {
        let body = self.read_body(entry)?;
        let decoded = format::decode_delta(&body_lines(&body), n)
            .map_err(|e| self.in_file_lines(entry, e))?;
        same_version(entry, decoded.version)?;
        if entry.base != Some(decoded.base) {
            return Err(StoreError::Inconsistent {
                version: entry.version,
                detail: "delta base disagrees with the one read at open".into(),
            });
        }
        Ok(decoded)
    }

    fn read_serve(&self, entry: &Entry) -> Result<ServeStateRecord, StoreError> {
        let body = self.read_body(entry)?;
        let (version, record) = format::decode_serve_state(&body_lines(&body))
            .map_err(|e| self.in_file_lines(entry, e))?;
        same_version(entry, version)?;
        Ok(record)
    }

    /// Renumber a decoding error's block line as a file line, by adding
    /// the number of lines before `entry`'s opener. Only the error path
    /// pays for the count: it reads the file up to the block again.
    fn in_file_lines(&self, entry: &Entry, e: StoreError) -> StoreError {
        let StoreError::BadRecord { line, detail } = e else {
            return e;
        };
        let mut before = Vec::new();
        let read = fs::File::open(&self.path)
            .and_then(|file| file.take(entry.offset).read_to_end(&mut before));
        match read {
            Ok(_) => StoreError::BadRecord {
                line: line + before.iter().filter(|&&b| b == b'\n').count() as u64,
                detail,
            },
            Err(e) => io_error("read")(e),
        }
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
}

/// A decoded block must carry the version `open` found for it.
fn same_version(entry: &Entry, decoded: u64) -> Result<(), StoreError> {
    if decoded == entry.version {
        Ok(())
    } else {
        Err(StoreError::Inconsistent {
            version: entry.version,
            detail: "block version disagrees with its end line".into(),
        })
    }
}

fn inconsistent(version: u64, e: &CoreError) -> StoreError {
    StoreError::Inconsistent {
        version,
        detail: e.to_string(),
    }
}

/// Why `cp` cannot follow `last` in one store, if it cannot. A delta
/// repeats neither the deployment size nor the radio range or cache
/// configuration, so every checkpoint keeps those of the one before.
fn shape_change(last: &CheckpointState, cp: &CheckpointState) -> Option<String> {
    let shape = |c: &CheckpointState| {
        (
            c.nodes.len(),
            c.range.to_bits(),
            c.budget_bytes,
            c.pair_bytes,
            c.policy,
        )
    };
    (shape(last) != shape(cp)).then(|| {
        format!(
            "deployment shape changed: {} nodes, range {}, cache {} B of {} B pairs, {:?}; was {} nodes, range {}, cache {} B of {} B pairs, {:?}",
            cp.nodes.len(),
            cp.range,
            cp.budget_bytes,
            cp.pair_bytes,
            cp.policy,
            last.nodes.len(),
            last.range,
            last.budget_bytes,
            last.pair_bytes,
            last.policy
        )
    })
}

/// Block body lines with their 1-based line numbers, counted from the
/// block's opener: blocks know their byte offset, not their line
/// offset. `SnapshotStore::in_file_lines` turns a decoding error's
/// line into a file line.
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

/// The number after the first `name` token of a block opener.
fn opener_field(opener: &str, name: &str) -> Option<u64> {
    let mut words = opener.split_ascii_whitespace();
    words.by_ref().find(|&w| w == name)?;
    words.next()?.parse().ok()
}

/// Structural scan of a whole file: header, block boundaries, seals,
/// version ordering, and where keyframes and deltas sit. Full per-line
/// decoding happens lazily.
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
    // Checkpoint blocks so far, and the newest one's version.
    let mut checkpoints = 0usize;
    let mut last_checkpoint: Option<u64> = None;
    loop {
        let block_offset = offset;
        let Some(opener) = take_line(&mut rest, &mut offset, &mut line_no) else {
            break;
        };
        let opener_line = line_no;
        let bad = |detail: String| StoreError::BadRecord {
            line: opener_line,
            detail,
        };
        let mut words = opener.split_ascii_whitespace();
        let (kind, delta) = match words.next() {
            Some("version") => (RecordKind::Checkpoint, false),
            Some("delta") => (RecordKind::Checkpoint, true),
            Some("serve") => (RecordKind::ServeState, false),
            _ => {
                return Err(bad(format!(
                    "expected a version, delta or serve line, got {opener:?}"
                )))
            }
        };
        let version = words
            .next()
            .and_then(|w| w.parse::<u64>().ok())
            .ok_or_else(|| bad("block opener has no version".into()))?;
        let tick = match kind {
            RecordKind::Checkpoint => Some(
                opener_field(opener, "tick")
                    .ok_or_else(|| bad("checkpoint opener has no tick".into()))?,
            ),
            RecordKind::ServeState => None,
        };
        let base = if delta {
            Some(
                opener_field(opener, "base")
                    .ok_or_else(|| bad("delta opener has no base".into()))?,
            )
        } else {
            None
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

        if kind == RecordKind::Checkpoint {
            let keyframe_due = checkpoints.is_multiple_of(KEYFRAME_INTERVAL);
            if keyframe_due == delta {
                return Err(bad(format!(
                    "checkpoint block {checkpoints} of the file must be a {}",
                    if keyframe_due { "keyframe" } else { "delta" }
                )));
            }
            if base.is_some() && base != last_checkpoint {
                return Err(bad(format!(
                    "delta base {} is not the previous checkpoint {}",
                    base.unwrap_or_default(),
                    last_checkpoint.unwrap_or_default()
                )));
            }
            checkpoints += 1;
            last_checkpoint = Some(version);
        }

        entries.push(Entry::new(
            version,
            kind,
            tick,
            base,
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

    /// `text` with every line of block `version` passed through `edit`
    /// and the block sealed again, so only the checks behind the seal
    /// can catch the edit.
    fn reseal(text: &str, version: u64, edit: impl Fn(&str) -> String) -> String {
        let end = format!("end {version} ");
        let mut out = String::new();
        let mut body: Option<String> = None;
        for line in text.lines() {
            let mut words = line.split_ascii_whitespace();
            if matches!(words.next(), Some("version" | "delta" | "serve"))
                && words.next() == Some(version.to_string().as_str())
            {
                body = Some(String::new());
            }
            match body.as_mut() {
                Some(b) if line.starts_with(&end) => {
                    out.push_str(b);
                    out.push_str(&format!(
                        "end {version} crc {:08x}\n",
                        format::crc32(b.as_bytes())
                    ));
                    body = None;
                }
                Some(b) => {
                    b.push_str(&edit(line));
                    b.push('\n');
                }
                None => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
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
            vec![1, 2],
            "a delta's image is derived from its parent's, built first; \
             a version past it holds no image"
        );

        // BETWEEN reuses the images AS OF built and builds the rest.
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
    fn a_delta_image_shares_each_part_its_delta_leaves_unchanged() {
        let path = tmp("sharing");
        let mut store = SnapshotStore::create(&path).unwrap();
        let mut cp = small_checkpoint(40);
        store.append_checkpoint(&cp).unwrap();
        cp.tick = 50;
        cp.values = vec![1.5, -0.0];
        store.append_checkpoint(&cp).unwrap();
        cp.tick = 60;
        cp.alive[1] = false;
        store.append_checkpoint(&cp).unwrap();
        cp.tick = 70;
        cp.nodes[1].refusing_invites = true;
        store.append_checkpoint(&cp).unwrap();

        let images = store.checkpoints_between(0, 70).unwrap();
        let shares = |a: usize, b: usize| images[a].1.shares_with(&images[b].1);
        // [topology, liveness, nodes]
        assert_eq!(shares(0, 1), [true, true, true], "a values-only delta");
        assert_eq!(shares(1, 2), [true, false, true], "a liveness change");
        assert_eq!(shares(2, 3), [true, true, false], "a node record change");
        assert_eq!(store.checkpoint(4).unwrap(), cp);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn keyframes_sit_at_every_kth_checkpoint_and_deltas_name_the_one_before() {
        let path = tmp("cadence");
        let mut store = SnapshotStore::create(&path).unwrap();
        let mut checkpoints = Vec::new();
        for i in 0..KEYFRAME_INTERVAL as u64 + 2 {
            let v = store.append_checkpoint(&small_checkpoint(40 + i)).unwrap();
            store
                .append_serve_state(&ServeStateRecord {
                    checkpoint_version: v,
                    next_ticket: 1,
                    stats: [0; 10],
                    pending: Vec::new(),
                    active: Vec::new(),
                })
                .unwrap();
            checkpoints.push(v);
        }
        let bases: Vec<Option<u64>> = SnapshotStore::open(&path)
            .unwrap()
            .versions()
            .into_iter()
            .filter(|info| info.kind == RecordKind::Checkpoint)
            .map(|info| info.base)
            .collect();
        let want: Vec<Option<u64>> = (0..checkpoints.len())
            .map(|i| (!i.is_multiple_of(KEYFRAME_INTERVAL)).then(|| checkpoints[i - 1]))
            .collect();
        assert_eq!(bases, want);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_delta_naming_a_non_adjacent_base_or_a_misplaced_keyframe_fails_open() {
        let path = tmp("bad-base");
        let mut store = SnapshotStore::create(&path).unwrap();
        for tick in [40, 50, 60] {
            store.append_checkpoint(&small_checkpoint(tick)).unwrap();
        }
        // Point version 3 at version 1 and re-seal its block, so only
        // the base check can catch it.
        let text = fs::read_to_string(&path).unwrap();
        let opener = text
            .lines()
            .position(|l| l.starts_with("delta 3 "))
            .unwrap();
        let out = reseal(&text, 3, |line| line.replace("base 2", "base 1"));
        assert!(out.contains("\ndelta 3 tick 60 epoch 1 base 1\n"));
        fs::write(&path, out).unwrap();
        match SnapshotStore::open(&path) {
            Err(StoreError::BadRecord { line, detail }) => {
                assert_eq!(line, opener as u64 + 1, "{detail}");
                assert!(detail.contains("base 1"), "{detail}");
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }

        // A keyframe where the format places a delta.
        let first = format::encode_checkpoint(1, &small_checkpoint(40));
        let second = format::encode_checkpoint(2, &small_checkpoint(50));
        fs::write(&path, format!("{HEADER}\n{first}{second}")).unwrap();
        let opener = 1 + first.lines().count() as u64 + 1;
        match SnapshotStore::open(&path) {
            Err(StoreError::BadRecord { line, detail }) => {
                assert_eq!(line, opener, "{detail}");
                assert!(detail.contains("must be a delta"), "{detail}");
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_reopened_writer_writes_the_bytes_of_one_that_never_closed() {
        let once = tmp("writer-once");
        let reopened = tmp("writer-reopened");
        let mut cp = small_checkpoint(40);
        let mut store = SnapshotStore::create(&once).unwrap();
        SnapshotStore::create(&reopened).unwrap();
        for tick in 0..KEYFRAME_INTERVAL as u64 + 3 {
            cp.tick = 40 + tick;
            cp.values[0] += 0.5;
            store.append_checkpoint(&cp).unwrap();
            let mut again = SnapshotStore::open(&reopened).unwrap();
            again.append_checkpoint(&cp).unwrap();
        }
        assert_eq!(fs::read(&once).unwrap(), fs::read(&reopened).unwrap());
        let _ = fs::remove_file(&once);
        let _ = fs::remove_file(&reopened);
    }

    #[test]
    fn a_checkpoint_that_changes_the_deployment_shape_is_refused() {
        let path = tmp("shape");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        let mut cp = small_checkpoint(50);
        cp.budget_bytes = 4096;
        match store.append_checkpoint(&cp) {
            Err(StoreError::Inconsistent { version: 2, detail }) => {
                assert!(detail.contains("shape"), "detail: {detail}");
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        let mut cp = small_checkpoint(50);
        cp.alive.pop();
        assert!(matches!(
            store.append_checkpoint(&cp),
            Err(StoreError::Inconsistent { version: 2, .. })
        ));
        assert_eq!(store.versions().len(), 1, "a refused append writes nothing");
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

    /// Every `StoreError` variant, raised through the store's own API:
    /// lookups the store cannot answer, a regressing append, and files
    /// that are missing, misheadered, torn, edited, bit-flipped or
    /// reordered.
    #[test]
    fn bit_flips_and_truncation_surface_as_typed_errors() {
        let path = tmp("damage");
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        let clean = fs::read(&path).unwrap();
        let mut raised = Vec::new();

        // An unknown version, an `AS OF` before the first checkpoint,
        // and a regressing tick.
        let err = store.checkpoint(9).unwrap_err();
        assert_eq!(err, StoreError::NoSuchVersion { version: 9 });
        raised.push(err);
        let err = store.checkpoint_as_of(39).unwrap_err();
        assert_eq!(err, StoreError::NoVersionAsOf { tick: 39 });
        raised.push(err);
        let err = store.append_checkpoint(&small_checkpoint(30)).unwrap_err();
        assert!(
            matches!(err, StoreError::Inconsistent { version: 2, .. }),
            "{err:?}"
        );
        raised.push(err);

        // A file that is not there.
        let missing = tmp("damage-missing");
        let _ = fs::remove_file(&missing);
        let err = SnapshotStore::open(&missing).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "read", .. }), "{err:?}");
        raised.push(err);

        // Flip a byte inside the block body.
        let mut bytes = clean.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = SnapshotStore::open(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { version: 1, .. }),
            "{err:?}"
        );
        raised.push(err);

        // Truncate mid-block: deep enough to lose the whole end line.
        let cut = clean.len() - 25;
        fs::write(&path, &clean[..cut]).unwrap();
        let err = SnapshotStore::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err:?}");
        raised.push(err);

        // Wrong header, and the previous format's.
        for header in ["not a store", "snapshot-store v1"] {
            fs::write(&path, format!("{header}\n")).unwrap();
            let err = SnapshotStore::open(&path).unwrap_err();
            assert_eq!(
                err,
                StoreError::BadHeader {
                    found: header.into()
                }
            );
            raised.push(err);
        }

        // An edited line, resealed: the file opens, the read fails.
        let text = String::from_utf8(clean).unwrap();
        let edited = reseal(&text, 1, |line| {
            if line.starts_with("config ") {
                "config garbage".to_string()
            } else {
                line.to_string()
            }
        });
        fs::write(&path, edited).unwrap();
        let err = SnapshotStore::open(&path)
            .unwrap()
            .checkpoint(1)
            .unwrap_err();
        // Line 3 of the file: the header, the opener, then `config`.
        assert!(
            matches!(err, StoreError::BadRecord { line: 3, .. }),
            "{err:?}"
        );
        raised.push(err);

        // The same kind of edit in a later delta block is reported at
        // its file line too, past the keyframe before it.
        let mut store = SnapshotStore::create(&path).unwrap();
        store.append_checkpoint(&small_checkpoint(40)).unwrap();
        store.append_checkpoint(&small_checkpoint(50)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\ndelta 2 "), "version 2 must be a delta");
        let edited = reseal(&text, 2, |line| {
            if line.starts_with("values ") {
                "values garbage".to_string()
            } else {
                line.to_string()
            }
        });
        let want = edited.lines().position(|l| l == "values garbage").unwrap() as u64 + 1;
        fs::write(&path, edited).unwrap();
        let err = SnapshotStore::open(&path)
            .unwrap()
            .checkpoint(2)
            .unwrap_err();
        assert!(
            matches!(err, StoreError::BadRecord { line, .. } if line == want),
            "{err:?}, want line {want}"
        );

        // Two sealed blocks in swapped order.
        let serve = ServeStateRecord {
            checkpoint_version: 1,
            next_ticket: 1,
            stats: [0; 10],
            pending: Vec::new(),
            active: Vec::new(),
        };
        fs::write(
            &path,
            format!(
                "{HEADER}\n{}{}{}",
                format::encode_checkpoint(1, &small_checkpoint(40)),
                format::encode_serve_state(3, &serve),
                format::encode_serve_state(2, &serve)
            ),
        )
        .unwrap();
        let err = SnapshotStore::open(&path).unwrap_err();
        assert_eq!(
            err,
            StoreError::VersionOrder {
                version: 2,
                previous: 3
            }
        );
        raised.push(err);

        // Tally by variant. The match has no wildcard arm, so a new
        // variant fails to compile here: give it the next slot, widen
        // the tally, and raise it above.
        let mut tally = [0usize; 9];
        for err in &raised {
            let slot = match err {
                StoreError::Io { .. } => 0,
                StoreError::BadHeader { .. } => 1,
                StoreError::Truncated { .. } => 2,
                StoreError::BadRecord { .. } => 3,
                StoreError::Corrupt { .. } => 4,
                StoreError::VersionOrder { .. } => 5,
                StoreError::NoSuchVersion { .. } => 6,
                StoreError::NoVersionAsOf { .. } => 7,
                StoreError::Inconsistent { .. } => 8,
            };
            tally[slot] += 1;
        }
        assert!(
            tally.iter().all(|&n| n > 0),
            "a StoreError variant the store never raised: {tally:?}"
        );
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
