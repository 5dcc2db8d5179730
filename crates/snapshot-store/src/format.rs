//! The `snapshot-store v2` on-disk format.
//!
//! Line-oriented UTF-8 text, chosen over a binary layout because the
//! workspace is offline (no serde) and the corpus is small: a file is
//! the header line `snapshot-store v2` followed by append-only
//! *blocks*, each closed by `end <version> crc <hex8>`. The CRC-32
//! (IEEE) covers every byte of the block before the `end` line, so a
//! bit flip or torn write is pinned to its block. A block is one of:
//!
//! * a **keyframe**, opened by `version …`: a whole checkpoint;
//! * a **delta**, opened by `delta <v> tick <t> epoch <e> base <b>`: a
//!   checkpoint written against the checkpoint block just before it
//!   (version `b`). It holds the `values` line always, and the
//!   `alive` line, the `pos`/`adj` lines and the records of each node
//!   only when they changed; a changed node lists only its changed
//!   cache lines, each as a `remove`, a whole `line` or an `edit`;
//! * a **serve state**, opened by `serve …`.
//!
//! The i-th checkpoint block of a file (i from 0) is a keyframe exactly
//! when i is a multiple of [`KEYFRAME_INTERVAL`], so a file's bytes
//! depend only on the sequence of appended states, and a version is
//! read back from at most that many blocks: its *chain*, the keyframe
//! at or before it and every delta after that keyframe up to it.
//!
//! Determinism rules that make `encode ∘ decode` the identity — and
//! therefore make [`rebuild`](crate::SnapshotStore::rebuild)
//! byte-identical:
//!
//! * every `f64` is its IEEE bit pattern as 16 lowercase hex digits
//!   (`{:016x}` of `to_bits`), never a decimal rendering;
//! * "changed" is decided by bits, never by `==` on floats, and a
//!   changed cache line is written as the smallest edit that rebuilds
//!   it;
//! * adjacency lists are written verbatim, in stored order (BFS tree
//!   construction is neighbor-order-sensitive);
//! * free-text fields (SQL) are percent-escaped so each record stays
//!   one line of tokens separated by ASCII whitespace; the encoder
//!   writes one space between tokens.

use crate::error::StoreError;
use snapshot_core::cache::CachePolicy;
use snapshot_core::checkpoint::{CheckpointState, LineCheckpoint, NodeCheckpoint, QualitySummary};
use snapshot_core::model::SuffStats;
use snapshot_core::sensor::Mode;
use std::fmt::Write as _;
use std::sync::LazyLock;

/// First line of every store file.
pub const HEADER: &str = "snapshot-store v2";

/// Checkpoint blocks per keyframe: the i-th checkpoint block of a file
/// is a keyframe exactly when `i % KEYFRAME_INTERVAL == 0`. A damaged
/// block therefore fails at most this many versions, and a cold read
/// decodes at most one keyframe and this many less one deltas. Eight
/// keeps a chain's deltas, about 9 KB each at N = 500, far below its
/// keyframe's 3.4 MB, so the file is about one keyframe in eight.
pub const KEYFRAME_INTERVAL: usize = 8;

/// What a block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A full deployment checkpoint.
    Checkpoint,
    /// A query-service state record for crash recovery.
    ServeState,
}

/// The pending half of a persisted query-service image: one submitted
/// query still waiting in its tenant queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRecord {
    /// Ticket issued at submission.
    pub ticket: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Tick of submission.
    pub submitted_at: u64,
    /// The normalized query text (re-planned on recovery).
    pub sql: String,
}

/// One admitted query with epochs still owed. Plans are *not*
/// persisted: the planner is pure, so recovery re-derives the scan,
/// coalescing key and aggregate by re-planning `sql`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveRecord {
    /// Tick the next epoch is due at.
    pub due: u64,
    /// Ticket issued at submission.
    pub ticket: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Tick of submission.
    pub submitted_at: u64,
    /// Tick the first epoch was served at, if any yet.
    pub first_result_at: Option<u64>,
    /// Ticks between sampling epochs.
    pub interval: u64,
    /// Epochs still owed.
    pub remaining: u64,
    /// Epochs promised in total.
    pub epochs_total: u64,
    /// The normalized query text.
    pub sql: String,
}

/// A frozen image of a `QueryService` at an admitted-query boundary,
/// paired with the checkpoint version of the deployment it was
/// serving. Restart recovery rehydrates the deployment from that
/// checkpoint and the service from this record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStateRecord {
    /// The checkpoint version this service state belongs to.
    pub checkpoint_version: u64,
    /// Next ticket the service would issue.
    pub next_ticket: u64,
    /// The ten `ServeStats` counters, in declaration order:
    /// submitted, rejected, admitted, plan_cache_hits,
    /// plan_cache_misses, plan_errors, scans, coalesced,
    /// epochs_served, completed.
    pub stats: [u64; 10],
    /// Queued-but-unadmitted queries, in tenant-then-queue order.
    pub pending: Vec<PendingRecord>,
    /// Admitted queries with epochs owed, in due-bucket order.
    pub active: Vec<ActiveRecord>,
}

/// A checkpoint block decoded in full: the state plus the quality
/// flags *as stored*, which [`verify`](crate::SnapshotStore::verify)
/// cross-checks against [`CheckpointState::quality`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCheckpoint {
    /// Block version.
    pub version: u64,
    /// The deployment image.
    pub state: CheckpointState,
    /// Quality flags as persisted (not recomputed).
    pub stored_quality: QualitySummary,
}

// --- primitives ---------------------------------------------------------

/// The reflected IEEE 802.3 CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Advance a reflected CRC-32 register over eight zero bits.
fn zero_byte(mut crc: u32) -> u32 {
    for _ in 0..8 {
        crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
    }
    crc
}

/// Slice-by-8 tables: entry `b` of table `k` is byte `b` followed by
/// `k` zero bytes, so eight table lookups advance the register over
/// eight input bytes at once.
static CRC_TABLES: LazyLock<[[u32; 256]; 8]> = LazyLock::new(|| {
    std::array::from_fn(|k| std::array::from_fn(|b| (0..=k).fold(b as u32, |c, _| zero_byte(c))))
});

fn lookup<T: Copy + Default>(table: &[T; 256], b: u8) -> T {
    table.get(usize::from(b)).copied().unwrap_or_default()
}

/// CRC-32 (IEEE 802.3, reflected), eight bytes per step. A store of
/// twelve N = 500 checkpoints is about 40 MB, and `open` checks every
/// block's CRC while every read checks its block's again.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &*CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFF_u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let low = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let [l0, l1, l2, l3] = low.to_le_bytes();
        crc = lookup(t7, l0)
            ^ lookup(t6, l1)
            ^ lookup(t5, l2)
            ^ lookup(t4, l3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &b in tail {
        crc = (crc >> 8) ^ lookup(t0, crc as u8 ^ b);
    }
    !crc
}

/// Each byte's value as two lowercase hex digits.
static HEX_PAIRS: LazyLock<[[u8; 2]; 256]> = LazyLock::new(|| {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let digit = |d: usize| DIGITS.get(d).copied().unwrap_or(b'0');
    std::array::from_fn(|b| [digit(b >> 4), digit(b & 0x0F)])
});

/// Append `v`'s bit pattern as 16 lowercase hex digits — the bytes of
/// `{:016x}` of `to_bits`, written straight into `out`. Floats are
/// nearly every token of a keyframe, so this allocates nothing.
fn push_hex_f64(out: &mut String, v: f64) {
    let mut digits = [0u8; 16];
    let (pairs, _) = digits.as_chunks_mut::<2>();
    for (pair, byte) in pairs.iter_mut().zip(v.to_bits().to_be_bytes()) {
        *pair = lookup(&HEX_PAIRS, byte);
    }
    out.push_str(std::str::from_utf8(&digits).unwrap_or_default());
}

/// Append each float as a space and its 16 hex digits.
fn push_f64s(out: &mut String, values: impl IntoIterator<Item = f64>) {
    for v in values {
        out.push(' ');
        push_hex_f64(out, v);
    }
}

/// Each byte's value as a hex digit of either case; 0xFF for a byte
/// that is not one.
static HEX_DIGITS: LazyLock<[u8; 256]> = LazyLock::new(|| {
    std::array::from_fn(|b| char::from(b as u8).to_digit(16).map_or(0xFF, |d| d as u8))
});

/// Sixteen hex digits as the bits they spell. Every digit goes through
/// the table and one test at the end rejects a non-digit: a branch per
/// digit would mispredict on random bit patterns.
fn hex_u64(token: &str) -> Option<u64> {
    let digits: &[u8; 16] = token.as_bytes().try_into().ok()?;
    let table = &*HEX_DIGITS;
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &b in digits {
        let d = lookup(table, b);
        seen |= d;
        bits = bits << 4 | u64::from(d & 0x0F);
    }
    (seen <= 0x0F).then_some(bits)
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        let literal = b.is_ascii_alphanumeric()
            || matches!(
                b,
                b'_' | b'.'
                    | b'('
                    | b')'
                    | b'*'
                    | b','
                    | b'<'
                    | b'>'
                    | b'='
                    | b'!'
                    | b'-'
                    | b'/'
                    | b'+'
            );
        if literal {
            out.push(b as char);
        } else {
            let _ = write!(out, "%{b:02x}");
        }
    }
    out
}

/// Parse context for one line: line number plus the scalar parsers,
/// all reporting [`StoreError::BadRecord`] with that line.
struct FieldCtx {
    line: u64,
}

impl FieldCtx {
    fn bad(&self, detail: impl Into<String>) -> StoreError {
        StoreError::BadRecord {
            line: self.line,
            detail: detail.into(),
        }
    }

    fn unescape(&self, token: &str) -> Result<String, StoreError> {
        let bytes = token.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut rest = bytes;
        while let Some((&b, tail)) = rest.split_first() {
            if b == b'%' {
                let hex = tail
                    .get(..2)
                    .ok_or_else(|| self.bad("dangling percent escape"))?;
                let text =
                    std::str::from_utf8(hex).map_err(|_| self.bad("non-ascii percent escape"))?;
                let value =
                    u8::from_str_radix(text, 16).map_err(|_| self.bad("bad percent escape"))?;
                out.push(value);
                rest = tail.get(2..).unwrap_or(&[]);
            } else {
                out.push(b);
                rest = tail;
            }
        }
        String::from_utf8(out).map_err(|_| self.bad("escaped text is not utf-8"))
    }

    fn f64_bits(&self, token: &str) -> Result<f64, StoreError> {
        if token.len() != 16 {
            return Err(self.bad(format!("expected 16 hex digits, got {token:?}")));
        }
        hex_u64(token)
            .map(f64::from_bits)
            .ok_or_else(|| self.bad(format!("bad f64 bits {token:?}")))
    }

    fn u64(&self, token: &str) -> Result<u64, StoreError> {
        token
            .parse::<u64>()
            .map_err(|_| self.bad(format!("expected integer, got {token:?}")))
    }

    fn u32(&self, token: &str) -> Result<u32, StoreError> {
        token
            .parse::<u32>()
            .map_err(|_| self.bad(format!("expected integer, got {token:?}")))
    }

    fn pair(&self, raw: &str, sep: char) -> Result<(u32, u64), StoreError> {
        let (a, b) = raw
            .split_once(sep)
            .ok_or_else(|| self.bad(format!("expected <id>{sep}<n>, got {raw:?}")))?;
        Ok((self.u32(a)?, self.u64(b)?))
    }
}

/// A sequential token reader over one line. Tokens are separated by
/// runs of ASCII whitespace.
struct Tokens<'a> {
    ctx: FieldCtx,
    iter: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(line_no: u64, text: &'a str) -> Self {
        Tokens {
            ctx: FieldCtx { line: line_no },
            iter: text.split_ascii_whitespace(),
        }
    }

    fn bad(&self, detail: impl Into<String>) -> StoreError {
        self.ctx.bad(detail)
    }

    fn next(&mut self, what: &str) -> Result<&'a str, StoreError> {
        self.iter
            .next()
            .ok_or_else(|| self.ctx.bad(format!("missing {what}")))
    }

    fn literal(&mut self, word: &str) -> Result<(), StoreError> {
        let got = self.next(word)?;
        if got == word {
            Ok(())
        } else {
            Err(self.ctx.bad(format!("expected {word:?}, got {got:?}")))
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let tok = self.next(what)?;
        self.ctx.u64(tok)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let tok = self.next(what)?;
        self.ctx.u32(tok)
    }

    fn f64_bits(&mut self, what: &str) -> Result<f64, StoreError> {
        let tok = self.next(what)?;
        self.ctx.f64_bits(tok)
    }

    fn bool01(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.next(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(self.ctx.bad(format!("expected 0 or 1, got {other:?}"))),
        }
    }

    fn escaped(&mut self, what: &str) -> Result<String, StoreError> {
        let tok = self.next(what)?;
        self.ctx.unescape(tok)
    }

    /// `<id><sep><n>` or the `-` none-marker.
    fn pair_or_dash(&mut self, what: &str, sep: char) -> Result<Option<(u32, u64)>, StoreError> {
        let raw = self.next(what)?;
        if raw == "-" {
            return Ok(None);
        }
        self.ctx.pair(raw, sep).map(Some)
    }

    /// Consume the rest of the line as `<id>@<epoch>` pairs.
    fn rest_pairs(mut self) -> Result<Vec<(u32, u64)>, StoreError> {
        let mut out = Vec::new();
        for raw in self.iter.by_ref() {
            out.push(self.ctx.pair(raw, '@')?);
        }
        Ok(out)
    }

    fn done(self) -> Result<(), StoreError> {
        let mut iter = self.iter;
        match iter.next() {
            None => Ok(()),
            Some(extra) => Err(self.ctx.bad(format!("unexpected trailing token {extra:?}"))),
        }
    }
}

/// A sequential line reader over one block's lines (the `end` line
/// excluded), each paired with its 1-based file line number.
struct Cursor<'a> {
    lines: &'a [(u64, &'a str)],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(lines: &'a [(u64, &'a str)]) -> Self {
        Cursor { lines, pos: 0 }
    }

    fn next(&mut self, what: &str) -> Result<Tokens<'a>, StoreError> {
        match self.lines.get(self.pos) {
            Some(&(line_no, text)) => {
                self.pos += 1;
                Ok(Tokens::new(line_no, text))
            }
            None => Err(StoreError::BadRecord {
                line: self.lines.last().map_or(0, |&(n, _)| n),
                detail: format!("block ends before {what}"),
            }),
        }
    }

    /// The file line number of the next line (of the last, at the end).
    fn line_no(&self) -> u64 {
        self.lines
            .get(self.pos)
            .or(self.lines.last())
            .map_or(0, |&(n, _)| n)
    }

    /// First word of the next line, without consuming it.
    fn peek_word(&self) -> Option<&'a str> {
        self.lines
            .get(self.pos)
            .and_then(|&(_, text)| text.split_ascii_whitespace().next())
    }

    fn finish(self) -> Result<(), StoreError> {
        match self.lines.get(self.pos) {
            None => Ok(()),
            Some(&(line_no, _)) => Err(StoreError::BadRecord {
                line: line_no,
                detail: "unexpected line after the block's last record".into(),
            }),
        }
    }
}

// --- checkpoint encoding ------------------------------------------------

fn mode_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Active => "active",
        Mode::Passive => "passive",
        Mode::Undefined => "undefined",
    }
}

fn policy_label(policy: CachePolicy) -> &'static str {
    match policy {
        CachePolicy::ModelAware => "model-aware",
        CachePolicy::RoundRobin => "round-robin",
    }
}

/// The `node` and `members` lines of one node record.
fn push_node_header(out: &mut String, index: usize, nc: &NodeCheckpoint) {
    let _ = write!(out, "node {index} mode {}", mode_label(nc.mode));
    match nc.rep_of {
        Some((rep, epoch)) => {
            let _ = write!(out, " rep {rep}@{epoch}");
        }
        None => out.push_str(" rep -"),
    }
    let _ = write!(
        out,
        " forced {} refusing {}",
        u8::from(nc.forced_active),
        u8::from(nc.refusing_invites)
    );
    match nc.rr_after {
        Some((node, m)) => {
            let _ = write!(out, " rr {node}:{m}");
        }
        None => out.push_str(" rr -"),
    }
    out.push('\n');
    out.push_str("members");
    for &(member, epoch) in &nc.represents {
        let _ = write!(out, " {member}@{epoch}");
    }
    out.push('\n');
}

fn push_stats(out: &mut String, stats: &SuffStats) {
    push_f64s(out, [stats.sx, stats.sy, stats.sxy, stats.sxx, stats.syy]);
}

fn push_pairs(out: &mut String, pairs: &[(f64, f64)]) {
    push_f64s(out, pairs.iter().flat_map(|&(x, y)| [x, y]));
}

fn push_line(out: &mut String, lc: &LineCheckpoint) {
    let _ = write!(
        out,
        "line {} {} n {} stats",
        lc.node, lc.measurement, lc.stats.n
    );
    push_stats(out, &lc.stats);
    out.push_str(" pairs");
    push_pairs(out, &lc.pairs);
    out.push('\n');
}

/// The `pos` lines, then the `adj` lines.
fn push_topology(out: &mut String, positions: &[(f64, f64)], neighbors: &[Vec<u32>]) {
    for &(x, y) in positions {
        out.push_str("pos");
        push_f64s(out, [x, y]);
        out.push('\n');
    }
    for adj in neighbors {
        let _ = write!(out, "adj {}", adj.len());
        for &id in adj {
            let _ = write!(out, " {id}");
        }
        out.push('\n');
    }
}

fn push_alive(out: &mut String, alive: &[bool]) {
    out.push_str("alive");
    for &a in alive {
        out.push_str(if a { " 1" } else { " 0" });
    }
    out.push('\n');
}

fn push_values(out: &mut String, values: &[f64]) {
    out.push_str("values");
    push_f64s(out, values.iter().copied());
    out.push('\n');
}

fn push_quality(out: &mut String, cp: &CheckpointState) {
    let q = cp.quality();
    let _ = write!(
        out,
        "quality alive {} active {} passive {} undefined {} stale {} coverage",
        q.alive, q.active, q.passive, q.undefined, q.stale_links
    );
    push_f64s(out, [q.coverage]);
    out.push('\n');
}

/// Encode one keyframe block — a whole checkpoint — `end` line
/// included.
pub fn encode_checkpoint(version: u64, cp: &CheckpointState) -> String {
    let n = cp.nodes.len();
    let mut body = String::new();
    let _ = writeln!(
        body,
        "version {version} tick {} epoch {} nodes {n}",
        cp.tick, cp.epoch
    );
    body.push_str("config range");
    push_f64s(&mut body, [cp.range]);
    let _ = writeln!(
        body,
        " budget {} pair {} policy {}",
        cp.budget_bytes,
        cp.pair_bytes,
        policy_label(cp.policy)
    );
    push_topology(&mut body, &cp.positions, &cp.neighbors);
    push_alive(&mut body, &cp.alive);
    push_values(&mut body, &cp.values);
    for (i, nc) in cp.nodes.iter().enumerate() {
        push_node_header(&mut body, i, nc);
        for lc in &nc.lines {
            push_line(&mut body, lc);
        }
    }
    push_quality(&mut body, cp);
    seal(body, version)
}

// --- deltas -------------------------------------------------------------

fn same_pairs(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.0.to_bits() == q.0.to_bits() && p.1.to_bits() == q.1.to_bits())
}

fn stats_bits(s: &SuffStats) -> (u32, [u64; 5]) {
    (s.n, [s.sx, s.sy, s.sxy, s.sxx, s.syy].map(f64::to_bits))
}

fn line_key(lc: &LineCheckpoint) -> (u32, u8) {
    (lc.node, lc.measurement)
}

fn same_line(a: &LineCheckpoint, b: &LineCheckpoint) -> bool {
    line_key(a) == line_key(b)
        && stats_bits(&a.stats) == stats_bits(&b.stats)
        && same_pairs(&a.pairs, &b.pairs)
}

fn same_node(a: &NodeCheckpoint, b: &NodeCheckpoint) -> bool {
    a.mode == b.mode
        && a.rep_of == b.rep_of
        && a.represents == b.represents
        && a.forced_active == b.forced_active
        && a.refusing_invites == b.refusing_invites
        && a.rr_after == b.rr_after
        && a.lines.len() == b.lines.len()
        && a.lines.iter().zip(&b.lines).all(|(x, y)| same_line(x, y))
}

/// What a checkpoint changes against the one before it, decided bit
/// for bit. Both must have the same deployment size.
#[derive(Debug)]
pub(crate) struct Changes {
    /// Some node's aliveness differs.
    alive: bool,
    /// Some position's bits or some adjacency list differ.
    topology: bool,
    /// Indices of the nodes whose record differs, ascending.
    nodes: Vec<usize>,
}

impl Changes {
    pub(crate) fn between(base: &CheckpointState, cp: &CheckpointState) -> Self {
        Changes {
            alive: base.alive != cp.alive,
            topology: !same_pairs(&base.positions, &cp.positions) || base.neighbors != cp.neighbors,
            nodes: base
                .nodes
                .iter()
                .zip(&cp.nodes)
                .enumerate()
                .filter(|(_, (a, b))| !same_node(a, b))
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// Bring `last`, the state these changes were taken against, up to
    /// `cp`, copying only what changed.
    pub(crate) fn roll_forward(&self, last: &mut CheckpointState, cp: &CheckpointState) {
        last.tick = cp.tick;
        last.epoch = cp.epoch;
        last.values.clone_from(&cp.values);
        if self.alive {
            last.alive.clone_from(&cp.alive);
        }
        if self.topology {
            last.positions.clone_from(&cp.positions);
            last.neighbors.clone_from(&cp.neighbors);
        }
        for &i in &self.nodes {
            if let (Some(dst), Some(src)) = (last.nodes.get_mut(i), cp.nodes.get(i)) {
                dst.clone_from(src);
            }
        }
    }
}

/// The smallest `d` for which `new` is `old[d..]` followed by more
/// pairs, keeping at least one old pair: the edit that drops `d`
/// oldest pairs and appends the rest.
fn edit_drop(old: &[(f64, f64)], new: &[(f64, f64)]) -> Option<usize> {
    (0..old.len()).find(|&d| {
        let kept = old.get(d..).unwrap_or_default();
        new.get(..kept.len())
            .is_some_and(|prefix| same_pairs(kept, prefix))
    })
}

/// The cache-line records that turn `old`'s lines into `new`'s, in key
/// order: `remove` for a key `new` lacks, `line` in full for a new key
/// or a changed line no edit rebuilds, `edit` for any other changed
/// line.
fn push_line_changes(out: &mut String, old: &[LineCheckpoint], new: &[LineCheckpoint]) {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
    loop {
        let (a, b) = (old.peek().copied(), new.peek().copied());
        let order = match (a, b) {
            (None, None) => break,
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (Some(a), Some(b)) => line_key(a).cmp(&line_key(b)),
        };
        if order.is_le() {
            old.next();
        }
        if order.is_ge() {
            new.next();
        }
        match (order, a, b) {
            (Less, Some(gone), _) => {
                let _ = writeln!(out, "remove {} {}", gone.node, gone.measurement);
            }
            (Greater, _, Some(fresh)) => push_line(out, fresh),
            (Equal, Some(a), Some(b)) if !same_line(a, b) => match edit_drop(&a.pairs, &b.pairs) {
                Some(drop) => {
                    let appended = b.pairs.get(a.pairs.len() - drop..).unwrap_or_default();
                    let _ = write!(
                        out,
                        "edit {} {} drop {drop} add {} stats",
                        b.node,
                        b.measurement,
                        appended.len()
                    );
                    push_stats(out, &b.stats);
                    out.push_str(" pairs");
                    push_pairs(out, appended);
                    out.push('\n');
                }
                None => push_line(out, b),
            },
            _ => {}
        }
    }
}

/// Encode one delta block, `end` line included: `cp` written against
/// `base`, the checkpoint stored as `base_version` just before it, with
/// `changes` taken between the two.
pub(crate) fn encode_delta(
    version: u64,
    base_version: u64,
    base: &CheckpointState,
    cp: &CheckpointState,
    changes: &Changes,
) -> String {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "delta {version} tick {} epoch {} base {base_version}",
        cp.tick, cp.epoch
    );
    push_values(&mut body, &cp.values);
    if changes.alive {
        push_alive(&mut body, &cp.alive);
    }
    if changes.topology {
        push_topology(&mut body, &cp.positions, &cp.neighbors);
    }
    for &i in &changes.nodes {
        if let (Some(old), Some(new)) = (base.nodes.get(i), cp.nodes.get(i)) {
            push_node_header(&mut body, i, new);
            push_line_changes(&mut body, &old.lines, &new.lines);
        }
    }
    push_quality(&mut body, cp);
    seal(body, version)
}

/// Encode one serve-state block, `end` line included.
pub fn encode_serve_state(version: u64, rec: &ServeStateRecord) -> String {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "serve {version} checkpoint {} next_ticket {}",
        rec.checkpoint_version, rec.next_ticket
    );
    body.push_str("sstats");
    for counter in rec.stats {
        let _ = write!(body, " {counter}");
    }
    body.push('\n');
    for p in &rec.pending {
        let _ = writeln!(
            body,
            "pending {} {} {} {}",
            p.ticket,
            p.tenant,
            p.submitted_at,
            escape(&p.sql)
        );
    }
    for a in &rec.active {
        let first = match a.first_result_at {
            Some(t) => t.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            body,
            "active {} {} {} {} {} {} {} {} {}",
            a.due,
            a.ticket,
            a.tenant,
            a.submitted_at,
            first,
            a.interval,
            a.remaining,
            a.epochs_total,
            escape(&a.sql)
        );
    }
    seal(body, version)
}

/// The `end` line sealing `body` as block `version`.
fn seal_line(version: u64, body: &[u8]) -> String {
    format!("end {version} crc {:08x}", crc32(body))
}

fn seal(mut body: String, version: u64) -> String {
    let end = seal_line(version, body.as_bytes());
    body.push_str(&end);
    body.push('\n');
    body
}

/// Split a sealed block (`end` line included) into its body and check
/// the seal: the last line must read exactly as [`seal`] writes it for
/// `version` and this body. `None` when it does not — a flipped bit in
/// the body or in the seal itself.
pub(crate) fn sealed_body(block: &[u8], version: u64) -> Option<&[u8]> {
    let text = block.strip_suffix(b"\n").unwrap_or(block);
    let cut = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let (body, end) = text.split_at(cut);
    (end == seal_line(version, body).as_bytes()).then_some(body)
}

// --- decoding -----------------------------------------------------------

/// Room reserved up front for `count` items a block says follow. The
/// count is read from the file, so it is capped: a damaged or forged
/// count then fails on the first missing token instead of reserving
/// memory for items that are not there.
fn prealloc(count: usize) -> usize {
    count.min(1 << 16)
}

/// Node positions and adjacency lists, in id order.
pub(crate) type Topology = (Vec<(f64, f64)>, Vec<Vec<u32>>);

/// `n` `pos` lines, then `n` `adj` lines.
fn decode_topology(cursor: &mut Cursor<'_>, n: usize) -> Result<Topology, StoreError> {
    let mut positions = Vec::with_capacity(prealloc(n));
    for _ in 0..n {
        let mut tok = cursor.next("a pos line")?;
        tok.literal("pos")?;
        let x = tok.f64_bits("x")?;
        let y = tok.f64_bits("y")?;
        tok.done()?;
        positions.push((x, y));
    }
    let mut neighbors = Vec::with_capacity(prealloc(n));
    for _ in 0..n {
        let mut tok = cursor.next("an adj line")?;
        tok.literal("adj")?;
        let k = tok.u64("neighbor count")? as usize;
        let mut adj = Vec::with_capacity(prealloc(k));
        for _ in 0..k {
            adj.push(tok.u32("neighbor id")?);
        }
        tok.done()?;
        neighbors.push(adj);
    }
    Ok((positions, neighbors))
}

fn decode_alive(cursor: &mut Cursor<'_>, n: usize) -> Result<Vec<bool>, StoreError> {
    let mut tok = cursor.next("the alive line")?;
    tok.literal("alive")?;
    let mut alive = Vec::with_capacity(prealloc(n));
    for _ in 0..n {
        alive.push(tok.bool01("alive flag")?);
    }
    tok.done()?;
    Ok(alive)
}

fn decode_values(cursor: &mut Cursor<'_>, n: usize) -> Result<Vec<f64>, StoreError> {
    let mut tok = cursor.next("the values line")?;
    tok.literal("values")?;
    let mut values = Vec::with_capacity(prealloc(n));
    for _ in 0..n {
        values.push(tok.f64_bits("value")?);
    }
    tok.done()?;
    Ok(values)
}

/// A node's `node` and `members` lines: its index and its record, with
/// no cache lines yet.
fn decode_node_header(cursor: &mut Cursor<'_>) -> Result<(usize, NodeCheckpoint), StoreError> {
    let mut tok = cursor.next("a node line")?;
    tok.literal("node")?;
    let index = tok.u64("node index")? as usize;
    tok.literal("mode")?;
    let mode = match tok.next("mode")? {
        "active" => Mode::Active,
        "passive" => Mode::Passive,
        "undefined" => Mode::Undefined,
        other => return Err(tok.bad(format!("unknown mode {other:?}"))),
    };
    tok.literal("rep")?;
    let rep_of = tok.pair_or_dash("rep", '@')?;
    tok.literal("forced")?;
    let forced_active = tok.bool01("forced flag")?;
    tok.literal("refusing")?;
    let refusing_invites = tok.bool01("refusing flag")?;
    tok.literal("rr")?;
    let rr_line = tok.bad("rr measurement out of range");
    let rr_after = match tok.pair_or_dash("rr marker", ':')? {
        None => None,
        Some((node, m)) => Some((node, u8::try_from(m).map_err(|_| rr_line)?)),
    };
    tok.done()?;

    let mut tok = cursor.next("a members line")?;
    tok.literal("members")?;
    let represents = tok.rest_pairs()?;
    Ok((
        index,
        NodeCheckpoint {
            mode,
            rep_of,
            represents,
            forced_active,
            refusing_invites,
            rr_after,
            lines: Vec::new(),
        },
    ))
}

/// A cache-line key: the neighbor and its measurement.
fn line_key_tokens(tok: &mut Tokens<'_>) -> Result<(u32, u8), StoreError> {
    let node = tok.u32("line neighbor")?;
    let meas = tok.u32("line measurement")?;
    let measurement = u8::try_from(meas).map_err(|_| tok.bad("line measurement out of range"))?;
    Ok((node, measurement))
}

/// `count` pairs of floats.
fn pairs_tokens(tok: &mut Tokens<'_>, count: usize) -> Result<Vec<(f64, f64)>, StoreError> {
    let mut pairs = Vec::with_capacity(prealloc(count));
    for _ in 0..count {
        let x = tok.f64_bits("pair x")?;
        let y = tok.f64_bits("pair y")?;
        pairs.push((x, y));
    }
    Ok(pairs)
}

/// The five float sums of a line's statistics, with count `n`.
fn stats_tokens(tok: &mut Tokens<'_>, n: u32) -> Result<SuffStats, StoreError> {
    Ok(SuffStats {
        n,
        sx: tok.f64_bits("sx")?,
        sy: tok.f64_bits("sy")?,
        sxy: tok.f64_bits("sxy")?,
        sxx: tok.f64_bits("sxx")?,
        syy: tok.f64_bits("syy")?,
    })
}

/// The rest of a `line` record, after its first word.
fn decode_line(mut tok: Tokens<'_>) -> Result<LineCheckpoint, StoreError> {
    let (node, measurement) = line_key_tokens(&mut tok)?;
    tok.literal("n")?;
    let count = tok.u32("pair count")?;
    tok.literal("stats")?;
    let stats = stats_tokens(&mut tok, count)?;
    tok.literal("pairs")?;
    let pairs = pairs_tokens(&mut tok, count as usize)?;
    tok.done()?;
    Ok(LineCheckpoint {
        node,
        measurement,
        stats,
        pairs,
    })
}

fn decode_quality(cursor: &mut Cursor<'_>, n: usize) -> Result<QualitySummary, StoreError> {
    let mut tok = cursor.next("the quality line")?;
    tok.literal("quality")?;
    tok.literal("alive")?;
    let alive = tok.u64("alive count")? as usize;
    tok.literal("active")?;
    let active = tok.u64("active count")? as usize;
    tok.literal("passive")?;
    let passive = tok.u64("passive count")? as usize;
    tok.literal("undefined")?;
    let undefined = tok.u64("undefined count")? as usize;
    tok.literal("stale")?;
    let stale_links = tok.u64("stale count")? as usize;
    tok.literal("coverage")?;
    let coverage = tok.f64_bits("coverage")?;
    tok.done()?;
    Ok(QualitySummary {
        nodes: n,
        alive,
        active,
        passive,
        undefined,
        stale_links,
        coverage,
    })
}

/// Decode a keyframe block previously produced by
/// [`encode_checkpoint`]. `lines` excludes the `end` line.
pub fn decode_checkpoint(lines: &[(u64, &str)]) -> Result<DecodedCheckpoint, StoreError> {
    let mut cursor = Cursor::new(lines);

    let mut tok = cursor.next("the version line")?;
    tok.literal("version")?;
    let version = tok.u64("version")?;
    tok.literal("tick")?;
    let tick = tok.u64("tick")?;
    tok.literal("epoch")?;
    let epoch = tok.u64("epoch")?;
    tok.literal("nodes")?;
    let n = tok.u64("node count")? as usize;
    tok.done()?;

    let mut tok = cursor.next("the config line")?;
    tok.literal("config")?;
    tok.literal("range")?;
    let range = tok.f64_bits("range")?;
    tok.literal("budget")?;
    let budget_bytes = tok.u64("budget")?;
    tok.literal("pair")?;
    let pair_bytes = tok.u64("pair bytes")?;
    tok.literal("policy")?;
    let policy = match tok.next("policy")? {
        "model-aware" => CachePolicy::ModelAware,
        "round-robin" => CachePolicy::RoundRobin,
        other => return Err(tok.bad(format!("unknown cache policy {other:?}"))),
    };
    tok.done()?;

    let (positions, neighbors) = decode_topology(&mut cursor, n)?;
    let alive = decode_alive(&mut cursor, n)?;
    let values = decode_values(&mut cursor, n)?;

    let mut nodes: Vec<NodeCheckpoint> = Vec::with_capacity(prealloc(n));
    for i in 0..n {
        let line = cursor.line_no();
        let (index, mut nc) = decode_node_header(&mut cursor)?;
        if index != i {
            return Err(StoreError::BadRecord {
                line,
                detail: format!("expected node {i}, got {index}"),
            });
        }
        while cursor.peek_word() == Some("line") {
            let mut tok = cursor.next("a line record")?;
            tok.literal("line")?;
            nc.lines.push(decode_line(tok)?);
        }
        nodes.push(nc);
    }

    let stored_quality = decode_quality(&mut cursor, n)?;
    cursor.finish()?;

    Ok(DecodedCheckpoint {
        version,
        state: CheckpointState {
            tick,
            epoch,
            range,
            positions,
            neighbors,
            alive,
            values,
            budget_bytes,
            pair_bytes,
            policy,
            nodes,
        },
        stored_quality,
    })
}

/// One cache-line record of a changed node in a delta block.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LineChange {
    /// `remove <node> <measurement>`: the base's line with this key is
    /// gone.
    Remove {
        /// The key's neighbor.
        node: u32,
        /// The key's measurement.
        measurement: u8,
    },
    /// `line …`, as in a keyframe: a new line, or a changed line that
    /// no edit rebuilds, written in full.
    Full(LineCheckpoint),
    /// `edit <node> <measurement> drop <d> add <k> stats <5 floats>
    /// pairs <k pairs>`: drop the base line's `d` oldest pairs, append
    /// these, and set these bit-exact statistics (their count is the
    /// new pair count).
    Edit {
        /// The key's neighbor.
        node: u32,
        /// The key's measurement.
        measurement: u8,
        /// Oldest pairs dropped.
        drop: usize,
        /// Pairs appended, oldest first.
        append: Vec<(f64, f64)>,
        /// The new statistics; `n` is set when the edit is applied.
        stats: SuffStats,
    },
}

impl LineChange {
    fn key(&self) -> (u32, u8) {
        match self {
            LineChange::Remove { node, measurement }
            | LineChange::Edit {
                node, measurement, ..
            } => (*node, *measurement),
            LineChange::Full(lc) => line_key(lc),
        }
    }
}

/// One changed node in a delta block: its whole header and members,
/// and its changed cache lines in key order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeDelta {
    /// The node's index.
    pub(crate) index: usize,
    /// The node's record; its `lines` are empty.
    pub(crate) header: NodeCheckpoint,
    /// Its cache-line changes, keys strictly ascending.
    pub(crate) lines: Vec<LineChange>,
}

/// A delta block decoded: what its checkpoint changes against its
/// base, the checkpoint block just before it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecodedDelta {
    /// Block version.
    pub(crate) version: u64,
    /// The version of the checkpoint it is written against.
    pub(crate) base: u64,
    /// Simulation time.
    pub(crate) tick: u64,
    /// Election epoch.
    pub(crate) epoch: u64,
    /// Every node's value.
    pub(crate) values: Vec<f64>,
    /// Every node's aliveness, when it changed.
    pub(crate) alive: Option<Vec<bool>>,
    /// Positions and adjacency lists, when the topology changed.
    pub(crate) topology: Option<Topology>,
    /// The changed nodes, indices strictly ascending.
    pub(crate) nodes: Vec<NodeDelta>,
    /// Quality flags as persisted.
    pub(crate) stored_quality: QualitySummary,
}

/// The rest of an `edit` record, after its first word.
fn decode_edit(mut tok: Tokens<'_>) -> Result<LineChange, StoreError> {
    let (node, measurement) = line_key_tokens(&mut tok)?;
    tok.literal("drop")?;
    let drop = tok.u64("dropped pair count")? as usize;
    tok.literal("add")?;
    let added = tok.u32("appended pair count")?;
    tok.literal("stats")?;
    let stats = stats_tokens(&mut tok, 0)?;
    tok.literal("pairs")?;
    let append = pairs_tokens(&mut tok, added as usize)?;
    tok.done()?;
    Ok(LineChange::Edit {
        node,
        measurement,
        drop,
        append,
        stats,
    })
}

/// A changed node's cache-line records, keys strictly ascending.
fn decode_line_changes(cursor: &mut Cursor<'_>) -> Result<Vec<LineChange>, StoreError> {
    let mut changes: Vec<LineChange> = Vec::new();
    while let Some(word @ ("line" | "edit" | "remove")) = cursor.peek_word() {
        let mut tok = cursor.next("a cache-line record")?;
        tok.literal(word)?;
        let bad_order = tok.bad("cache-line keys are not strictly ascending");
        let change = match word {
            "line" => LineChange::Full(decode_line(tok)?),
            "edit" => decode_edit(tok)?,
            _ => {
                let (node, measurement) = line_key_tokens(&mut tok)?;
                tok.done()?;
                LineChange::Remove { node, measurement }
            }
        };
        if changes
            .last()
            .is_some_and(|prev| prev.key() >= change.key())
        {
            return Err(bad_order);
        }
        changes.push(change);
    }
    Ok(changes)
}

/// Decode a delta block previously produced by [`encode_delta`], for a
/// deployment of `n` nodes (its base's size). `lines` excludes the
/// `end` line.
pub(crate) fn decode_delta(lines: &[(u64, &str)], n: usize) -> Result<DecodedDelta, StoreError> {
    let mut cursor = Cursor::new(lines);

    let mut tok = cursor.next("the delta line")?;
    tok.literal("delta")?;
    let version = tok.u64("version")?;
    tok.literal("tick")?;
    let tick = tok.u64("tick")?;
    tok.literal("epoch")?;
    let epoch = tok.u64("epoch")?;
    tok.literal("base")?;
    let base = tok.u64("base version")?;
    tok.done()?;

    let values = decode_values(&mut cursor, n)?;
    let alive = match cursor.peek_word() {
        Some("alive") => Some(decode_alive(&mut cursor, n)?),
        _ => None,
    };
    let topology = match cursor.peek_word() {
        Some("pos") => Some(decode_topology(&mut cursor, n)?),
        _ => None,
    };
    let mut nodes: Vec<NodeDelta> = Vec::new();
    while cursor.peek_word() == Some("node") {
        let line = cursor.line_no();
        let (index, header) = decode_node_header(&mut cursor)?;
        if index >= n || nodes.last().is_some_and(|prev| prev.index >= index) {
            return Err(StoreError::BadRecord {
                line,
                detail: format!("node {index} is out of range or out of order"),
            });
        }
        let lines = decode_line_changes(&mut cursor)?;
        nodes.push(NodeDelta {
            index,
            header,
            lines,
        });
    }
    let stored_quality = decode_quality(&mut cursor, n)?;
    cursor.finish()?;

    Ok(DecodedDelta {
        version,
        base,
        tick,
        epoch,
        values,
        alive,
        topology,
        nodes,
        stored_quality,
    })
}

impl DecodedDelta {
    fn inconsistent(&self, detail: String) -> StoreError {
        StoreError::Inconsistent {
            version: self.version,
            detail,
        }
    }

    /// Apply the changed nodes' records to `nodes`, the base's records.
    pub(crate) fn apply_nodes(&self, nodes: &mut [NodeCheckpoint]) -> Result<(), StoreError> {
        for nd in &self.nodes {
            let nc = nodes
                .get_mut(nd.index)
                .ok_or_else(|| self.inconsistent(format!("node {} is out of range", nd.index)))?;
            let lines = std::mem::take(&mut nc.lines);
            *nc = NodeCheckpoint {
                lines: apply_lines(lines, &nd.lines)
                    .map_err(|detail| self.inconsistent(format!("node {}: {detail}", nd.index)))?,
                ..nd.header.clone()
            };
        }
        Ok(())
    }

    /// Roll `state`, the base's checkpoint, forward to this version.
    pub(crate) fn apply(&self, state: &mut CheckpointState) -> Result<(), StoreError> {
        self.apply_nodes(&mut state.nodes)?;
        state.tick = self.tick;
        state.epoch = self.epoch;
        state.values.clone_from(&self.values);
        if let Some(alive) = &self.alive {
            state.alive.clone_from(alive);
        }
        if let Some((positions, neighbors)) = &self.topology {
            state.positions.clone_from(positions);
            state.neighbors.clone_from(neighbors);
        }
        Ok(())
    }
}

/// Merge `changes` (keys strictly ascending) into `lines` (the base's
/// lines, in key order).
fn apply_lines(
    lines: Vec<LineCheckpoint>,
    changes: &[LineChange],
) -> Result<Vec<LineCheckpoint>, String> {
    let mut base = lines.into_iter().peekable();
    let mut out = Vec::with_capacity(base.len() + changes.len());
    for change in changes {
        let key = change.key();
        while let Some(lc) = base.next_if(|lc| line_key(lc) < key) {
            out.push(lc);
        }
        let existing = base.next_if(|lc| line_key(lc) == key);
        match (change, existing) {
            (LineChange::Remove { .. }, Some(_)) => {}
            (LineChange::Full(lc), _) => out.push(lc.clone()),
            (
                LineChange::Edit {
                    node,
                    measurement,
                    drop,
                    append,
                    stats,
                },
                Some(old),
            ) => {
                let mut pairs = old.pairs;
                if *drop > pairs.len() {
                    return Err(format!(
                        "line {node} {measurement} drops {drop} of {} pairs",
                        pairs.len()
                    ));
                }
                pairs.drain(..*drop);
                pairs.extend_from_slice(append);
                let n = u32::try_from(pairs.len())
                    .map_err(|_| format!("line {node} {measurement} holds too many pairs"))?;
                out.push(LineCheckpoint {
                    node: *node,
                    measurement: *measurement,
                    stats: SuffStats { n, ..*stats },
                    pairs,
                });
            }
            (LineChange::Remove { .. } | LineChange::Edit { .. }, None) => {
                return Err(format!(
                    "line {} {} changes a line the base does not hold",
                    key.0, key.1
                ));
            }
        }
    }
    out.extend(base);
    Ok(out)
}

/// Decode a serve-state block previously produced by
/// [`encode_serve_state`]. `lines` excludes the `end` line.
pub fn decode_serve_state(lines: &[(u64, &str)]) -> Result<(u64, ServeStateRecord), StoreError> {
    let mut cursor = Cursor::new(lines);

    let mut tok = cursor.next("the serve line")?;
    tok.literal("serve")?;
    let version = tok.u64("version")?;
    tok.literal("checkpoint")?;
    let checkpoint_version = tok.u64("checkpoint version")?;
    tok.literal("next_ticket")?;
    let next_ticket = tok.u64("next ticket")?;
    tok.done()?;

    let mut tok = cursor.next("the sstats line")?;
    tok.literal("sstats")?;
    let mut stats = [0u64; 10];
    for counter in &mut stats {
        *counter = tok.u64("stats counter")?;
    }
    tok.done()?;

    let mut pending = Vec::new();
    while cursor.peek_word() == Some("pending") {
        let mut tok = cursor.next("a pending record")?;
        tok.literal("pending")?;
        let ticket = tok.u64("ticket")?;
        let tenant = tok.u32("tenant")?;
        let submitted_at = tok.u64("submission tick")?;
        let sql = tok.escaped("sql")?;
        tok.done()?;
        pending.push(PendingRecord {
            ticket,
            tenant,
            submitted_at,
            sql,
        });
    }

    let mut active = Vec::new();
    while cursor.peek_word() == Some("active") {
        let mut tok = cursor.next("an active record")?;
        tok.literal("active")?;
        let due = tok.u64("due tick")?;
        let ticket = tok.u64("ticket")?;
        let tenant = tok.u32("tenant")?;
        let submitted_at = tok.u64("submission tick")?;
        let first_result_at = match tok.next("first-result tick")? {
            "-" => None,
            raw => Some(
                raw.parse::<u64>()
                    .map_err(|_| tok.bad(format!("bad first-result tick {raw:?}")))?,
            ),
        };
        let interval = tok.u64("interval")?;
        let remaining = tok.u64("remaining epochs")?;
        let epochs_total = tok.u64("total epochs")?;
        let sql = tok.escaped("sql")?;
        tok.done()?;
        active.push(ActiveRecord {
            due,
            ticket,
            tenant,
            submitted_at,
            first_result_at,
            interval,
            remaining,
            epochs_total,
            sql,
        });
    }
    cursor.finish()?;

    Ok((
        version,
        ServeStateRecord {
            checkpoint_version,
            next_ticket,
            stats,
            pending,
            active,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise CRC-32 the table-driven one must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut noise = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state.to_le_bytes()[7]
                })
                .collect()
        };
        let short = noise(64);
        for len in 0..=64 {
            let bytes = &short[..len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "length {len}");
        }
        for len in [(1 << 21) + 3, 3 << 20, (5 << 20) - 1] {
            let bytes = noise(len);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
    }

    #[test]
    fn escaping_round_trips_sql_text() {
        let sql = "select avg(value) from region where value > 10.5 sample interval 5s for 20s";
        let escaped = escape(sql);
        assert!(!escaped.contains(' '), "escaped text must be one token");
        let ctx = FieldCtx { line: 1 };
        assert_eq!(
            ctx.unescape(&escaped)
                .unwrap_or_else(|e| panic!("unescape failed: {e}")),
            sql
        );
    }

    fn hex_f64(v: f64) -> String {
        let mut out = String::new();
        push_hex_f64(&mut out, v);
        out
    }

    #[test]
    fn hex_floats_are_written_as_the_standard_formatter_writes_them() {
        let mut cases = vec![
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(1),
            f64::MAX,
        ];
        let mut state = 0x853C_49E6_748F_EA9B_u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cases.push(f64::from_bits(state));
        }
        let mut out = String::new();
        for v in cases {
            out.clear();
            push_hex_f64(&mut out, v);
            assert_eq!(out, format!("{:016x}", v.to_bits()));
        }
    }

    #[test]
    fn f64_bits_survive_negative_zero_and_nan_payloads() {
        let ctx = FieldCtx { line: 1 };
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, -f64::MIN_POSITIVE] {
            let coded = hex_f64(v);
            let back = ctx
                .f64_bits(&coded)
                .unwrap_or_else(|e| panic!("decode failed: {e}"));
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn hex_digits_read_as_the_standard_parser_reads_them() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        for _ in 0..1000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            for token in [format!("{state:016x}"), format!("{state:016X}")] {
                assert_eq!(hex_u64(&token), u64::from_str_radix(&token, 16).ok());
            }
        }
        for token in [
            "000000000000000g",
            "0000000 00000000",
            "00000000000000é",
            "+00000000000000f",
            "000000000000000",
            "00000000000000000",
        ] {
            assert_eq!(hex_u64(token), None, "{token:?}");
        }
    }

    #[test]
    fn any_ascii_whitespace_separates_tokens() {
        let cp = tiny_checkpoint();
        let text = encode_checkpoint(3, &cp);
        let owned = block_lines(&text);
        let body = &owned[..owned.len() - 1];
        // Layouts the encoder never writes: doubled spaces, tabs, and
        // blanks before the first and after the last token.
        for sep in ["  ", "\t", " \t "] {
            let spaced: Vec<(u64, String)> = body
                .iter()
                .map(|(n, l)| (*n, format!("{sep}{}{sep}", l.replace(' ', sep))))
                .collect();
            let lines: Vec<(u64, &str)> = spaced.iter().map(|(n, l)| (*n, l.as_str())).collect();
            let decoded =
                decode_checkpoint(&lines).unwrap_or_else(|e| panic!("{sep:?} layout: {e}"));
            assert_eq!(decoded.state, cp, "{sep:?} layout");
        }
    }

    fn tiny_checkpoint() -> CheckpointState {
        CheckpointState {
            tick: 40,
            epoch: 1,
            range: 1.5,
            positions: vec![(0.0, 0.0), (1.0, 0.25)],
            neighbors: vec![vec![1], vec![0]],
            alive: vec![true, true],
            values: vec![10.0, 10.5],
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
                    lines: vec![LineCheckpoint {
                        node: 1,
                        measurement: 0,
                        stats: SuffStats {
                            n: 2,
                            sx: 20.5,
                            sy: 20.0,
                            sxy: 205.0,
                            sxx: 210.25,
                            syy: 200.0,
                        },
                        pairs: vec![(10.0, 9.75), (10.5, 10.25)],
                    }],
                },
                NodeCheckpoint {
                    mode: Mode::Passive,
                    rep_of: Some((0, 1)),
                    represents: Vec::new(),
                    forced_active: false,
                    refusing_invites: true,
                    rr_after: Some((1, 0)),
                    lines: Vec::new(),
                },
            ],
        }
    }

    fn block_lines(text: &str) -> Vec<(u64, String)> {
        text.lines()
            .enumerate()
            .map(|(i, l)| (i as u64 + 1, l.to_string()))
            .collect()
    }

    #[test]
    fn checkpoint_blocks_round_trip_bit_exactly() {
        let cp = tiny_checkpoint();
        let text = encode_checkpoint(3, &cp);
        let owned = block_lines(&text);
        let body: Vec<(u64, &str)> = owned
            .iter()
            .take(owned.len() - 1) // drop the end line
            .map(|&(n, ref l)| (n, l.as_str()))
            .collect();
        let decoded = decode_checkpoint(&body).unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(decoded.version, 3);
        assert_eq!(decoded.state, cp);
        assert_eq!(decoded.stored_quality, cp.quality());
        // Canonical: re-encoding the decoded state reproduces the bytes.
        assert_eq!(encode_checkpoint(3, &decoded.state), text);
    }

    #[test]
    fn serve_blocks_round_trip_bit_exactly() {
        let rec = ServeStateRecord {
            checkpoint_version: 3,
            next_ticket: 7,
            stats: [6, 1, 5, 2, 3, 0, 4, 1, 9, 4],
            pending: vec![PendingRecord {
                ticket: 6,
                tenant: 2,
                submitted_at: 41,
                sql: "select avg(value) from region".into(),
            }],
            active: vec![ActiveRecord {
                due: 45,
                ticket: 5,
                tenant: 1,
                submitted_at: 40,
                first_result_at: Some(41),
                interval: 5,
                remaining: 2,
                epochs_total: 4,
                sql: "select avg(value) from region sample interval 5s for 20s".into(),
            }],
        };
        let text = encode_serve_state(4, &rec);
        let owned = block_lines(&text);
        let body: Vec<(u64, &str)> = owned
            .iter()
            .take(owned.len() - 1)
            .map(|&(n, ref l)| (n, l.as_str()))
            .collect();
        let (version, decoded) =
            decode_serve_state(&body).unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(version, 4);
        assert_eq!(decoded, rec);
        assert_eq!(encode_serve_state(4, &decoded), text);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let cp = tiny_checkpoint();
        let text = encode_checkpoint(1, &cp);
        let mut owned = block_lines(&text);
        owned.truncate(owned.len() - 1);
        // Damage the config line (line 2).
        owned[1].1 = "config range zz budget 2048 pair 8 policy model-aware".into();
        let body: Vec<(u64, &str)> = owned.iter().map(|&(n, ref l)| (n, l.as_str())).collect();
        match decode_checkpoint(&body) {
            Err(StoreError::BadRecord { line: 2, .. }) => {}
            other => panic!("expected BadRecord at line 2, got {other:?}"),
        }
    }

    /// Decode `block` (its `end` line dropped) as a delta against an
    /// `n`-node base.
    fn decode_delta_block(block: &str, n: usize) -> DecodedDelta {
        let owned = block_lines(block);
        let body: Vec<(u64, &str)> = owned
            .iter()
            .take(owned.len() - 1)
            .map(|&(n, ref l)| (n, l.as_str()))
            .collect();
        decode_delta(&body, n).unwrap_or_else(|e| panic!("decode failed: {e}"))
    }

    /// Encode `next` against `base`, decode it, and roll `base`
    /// forward: the result must be `next`, bit for bit, and encoding
    /// the decoded state again must reproduce the block.
    fn delta_round_trip(base: &CheckpointState, next: &CheckpointState) -> String {
        let changes = Changes::between(base, next);
        let text = encode_delta(5, 4, base, next, &changes);
        let delta = decode_delta_block(&text, base.nodes.len());
        assert_eq!((delta.version, delta.base, delta.tick), (5, 4, next.tick));
        assert_eq!(delta.stored_quality, next.quality());
        let mut rolled = base.clone();
        delta
            .apply(&mut rolled)
            .unwrap_or_else(|e| panic!("apply failed: {e}"));
        assert_eq!(format!("{rolled:?}"), format!("{next:?}"));
        assert_eq!(encode_checkpoint(5, &rolled), encode_checkpoint(5, next));
        assert_eq!(
            encode_delta(5, 4, base, &rolled, &Changes::between(base, &rolled)),
            text
        );
        let mut last = base.clone();
        changes.roll_forward(&mut last, next);
        assert_eq!(format!("{last:?}"), format!("{next:?}"));
        text
    }

    #[test]
    fn a_values_only_delta_holds_the_values_and_quality_only() {
        let base = tiny_checkpoint();
        let mut next = base.clone();
        next.tick += 5;
        next.values = vec![-0.0, 10.5];
        let text = delta_round_trip(&base, &next);
        let words: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_ascii_whitespace().next())
            .collect();
        assert_eq!(words, ["delta", "values", "quality", "end"]);
    }

    #[test]
    fn delta_blocks_rebuild_every_kind_of_change_bit_exactly() {
        let base = tiny_checkpoint();
        let mut next = base.clone();
        next.tick += 5;
        next.epoch += 1;
        next.alive[1] = false;
        next.positions[1] = (1.0, 0.5);
        next.neighbors[0] = vec![];
        next.neighbors[1] = vec![];
        // Node 0: its line slides by one pair, and a new line appears.
        let line = &mut next.nodes[0].lines[0];
        line.pairs.remove(0);
        line.pairs.push((11.0, 10.75));
        line.stats.sx = 21.5;
        next.nodes[0].lines.push(LineCheckpoint {
            node: 1,
            measurement: 2,
            stats: SuffStats {
                n: 1,
                sx: 1.0,
                sy: 2.0,
                sxy: 2.0,
                sxx: 1.0,
                syy: 4.0,
            },
            pairs: vec![(1.0, 2.0)],
        });
        // Node 1: header fields only.
        next.nodes[1].mode = Mode::Undefined;
        next.nodes[1].rep_of = None;
        let text = delta_round_trip(&base, &next);
        for record in [
            "alive ",
            "pos ",
            "adj ",
            "node 0 ",
            "edit 1 0 drop 1 add 1 ",
            "line 1 2 ",
            "node 1 ",
        ] {
            assert!(text.contains(record), "no {record:?} in\n{text}");
        }

        // Node 0 loses its first line; its second is rewritten in full
        // because it is no longer old[d..] followed by new pairs.
        let mut later = next.clone();
        later.nodes[0].lines.remove(0);
        later.nodes[0].lines[0].pairs[0].1 = 2.5;
        let text = delta_round_trip(&next, &later);
        assert!(text.contains("remove 1 0\n"), "{text}");
        assert!(text.contains("line 1 2 n 1 "), "{text}");
        assert!(!text.contains("edit "), "{text}");
    }

    #[test]
    fn edits_drop_the_fewest_pairs_that_rebuild_the_line() {
        let (a, b, c) = ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0));
        assert_eq!(edit_drop(&[a, b], &[a, b, c]), Some(0));
        assert_eq!(edit_drop(&[a, b], &[b, c]), Some(1));
        assert_eq!(edit_drop(&[a, a, a], &[a, a, a, a]), Some(0));
        assert_eq!(edit_drop(&[a, b], &[b, a]), Some(1));
        // Nothing kept: the line is written in full.
        assert_eq!(edit_drop(&[a, b], &[c]), None);
        assert_eq!(edit_drop(&[(0.0, 1.0)], &[(-0.0, 1.0)]), None);
        assert_eq!(edit_drop(&[a, b, c], &[a, c]), None);
    }

    #[test]
    fn deltas_that_contradict_their_base_are_typed_errors() {
        let mut base = tiny_checkpoint();
        let mut next = base.clone();
        next.nodes[0].lines[0].pairs.push((11.0, 10.75));
        let text = encode_delta(5, 4, &base, &next, &Changes::between(&base, &next));
        let mut short = base.clone();
        short.nodes[0].lines.clear();
        let delta = decode_delta_block(&text, 2);
        match delta.apply(&mut short) {
            Err(StoreError::Inconsistent { version: 5, detail }) => {
                assert!(detail.contains("does not hold"), "{detail}");
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        let overdrawn = text.replace("drop 0", "drop 9");
        let delta = decode_delta_block(&overdrawn, 2);
        assert!(matches!(
            delta.apply(&mut base),
            Err(StoreError::Inconsistent { version: 5, .. })
        ));
    }

    #[test]
    fn forged_counts_fail_on_the_missing_tokens() {
        let cp = tiny_checkpoint();
        let text = encode_checkpoint(3, &cp).replace("nodes 2", "nodes 4000000000000");
        let owned = block_lines(&text);
        let body: Vec<(u64, &str)> = owned
            .iter()
            .take(owned.len() - 1)
            .map(|&(n, ref l)| (n, l.as_str()))
            .collect();
        assert!(matches!(
            decode_checkpoint(&body),
            Err(StoreError::BadRecord { .. })
        ));

        let mut next = cp.clone();
        next.nodes[0].lines[0].pairs.push((11.0, 10.75));
        let text = encode_delta(5, 4, &cp, &next, &Changes::between(&cp, &next))
            .replace("add 1 ", "add 4000000000 ");
        let owned = block_lines(&text);
        let body: Vec<(u64, &str)> = owned
            .iter()
            .take(owned.len() - 1)
            .map(|&(n, ref l)| (n, l.as_str()))
            .collect();
        assert!(matches!(
            decode_delta(&body, 2),
            Err(StoreError::BadRecord { .. })
        ));
    }
}
