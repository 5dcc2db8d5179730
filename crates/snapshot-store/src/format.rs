//! The `snapshot-store v1` on-disk format.
//!
//! Line-oriented UTF-8 text, chosen over a binary layout because the
//! workspace is offline (no serde) and the corpus is small: a file is
//! the header line `snapshot-store v1` followed by append-only
//! *blocks*, each opened by a `version …` (checkpoint) or `serve …`
//! (serve-state) line and closed by `end <version> crc <hex8>`. The
//! CRC-32 (IEEE) covers every byte of the block before the `end` line,
//! so a bit flip or torn write is pinned to its block.
//!
//! Determinism rules that make `encode ∘ decode` the identity — and
//! therefore make [`rebuild`](crate::SnapshotStore::rebuild)
//! byte-identical:
//!
//! * every `f64` is its IEEE bit pattern as 16 lowercase hex digits
//!   (`{:016x}` of `to_bits`), never a decimal rendering;
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
pub const HEADER: &str = "snapshot-store v1";

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

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
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

fn push_node(out: &mut String, index: usize, nc: &NodeCheckpoint) {
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
    for lc in &nc.lines {
        push_line(out, lc);
    }
}

fn push_line(out: &mut String, lc: &LineCheckpoint) {
    let _ = write!(
        out,
        "line {} {} n {} stats {} {} {} {} {} pairs",
        lc.node,
        lc.measurement,
        lc.stats.n,
        hex_f64(lc.stats.sx),
        hex_f64(lc.stats.sy),
        hex_f64(lc.stats.sxy),
        hex_f64(lc.stats.sxx),
        hex_f64(lc.stats.syy),
    );
    for &(x, y) in &lc.pairs {
        let _ = write!(out, " {} {}", hex_f64(x), hex_f64(y));
    }
    out.push('\n');
}

/// Encode one checkpoint block, `end` line included.
pub fn encode_checkpoint(version: u64, cp: &CheckpointState) -> String {
    let n = cp.nodes.len();
    let mut body = String::new();
    let _ = writeln!(
        body,
        "version {version} tick {} epoch {} nodes {n}",
        cp.tick, cp.epoch
    );
    let _ = writeln!(
        body,
        "config range {} budget {} pair {} policy {}",
        hex_f64(cp.range),
        cp.budget_bytes,
        cp.pair_bytes,
        policy_label(cp.policy)
    );
    for &(x, y) in &cp.positions {
        let _ = writeln!(body, "pos {} {}", hex_f64(x), hex_f64(y));
    }
    for adj in &cp.neighbors {
        let _ = write!(body, "adj {}", adj.len());
        for &id in adj {
            let _ = write!(body, " {id}");
        }
        body.push('\n');
    }
    body.push_str("alive");
    for &a in &cp.alive {
        let _ = write!(body, " {}", u8::from(a));
    }
    body.push('\n');
    body.push_str("values");
    for &v in &cp.values {
        let _ = write!(body, " {}", hex_f64(v));
    }
    body.push('\n');
    for (i, nc) in cp.nodes.iter().enumerate() {
        push_node(&mut body, i, nc);
    }
    let q = cp.quality();
    let _ = writeln!(
        body,
        "quality alive {} active {} passive {} undefined {} stale {} coverage {}",
        q.alive,
        q.active,
        q.passive,
        q.undefined,
        q.stale_links,
        hex_f64(q.coverage)
    );
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

/// Decode a checkpoint block previously produced by
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

    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let mut tok = cursor.next("a pos line")?;
        tok.literal("pos")?;
        let x = tok.f64_bits("x")?;
        let y = tok.f64_bits("y")?;
        tok.done()?;
        positions.push((x, y));
    }

    let mut neighbors = Vec::with_capacity(n);
    for _ in 0..n {
        let mut tok = cursor.next("an adj line")?;
        tok.literal("adj")?;
        let k = tok.u64("neighbor count")? as usize;
        let mut adj = Vec::with_capacity(k);
        for _ in 0..k {
            adj.push(tok.u32("neighbor id")?);
        }
        tok.done()?;
        neighbors.push(adj);
    }

    let mut tok = cursor.next("the alive line")?;
    tok.literal("alive")?;
    let mut alive = Vec::with_capacity(n);
    for _ in 0..n {
        alive.push(tok.bool01("alive flag")?);
    }
    tok.done()?;

    let mut tok = cursor.next("the values line")?;
    tok.literal("values")?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(tok.f64_bits("value")?);
    }
    tok.done()?;

    let mut nodes: Vec<NodeCheckpoint> = Vec::with_capacity(n);
    for i in 0..n {
        let mut tok = cursor.next("a node line")?;
        tok.literal("node")?;
        let index = tok.u64("node index")? as usize;
        if index != i {
            return Err(tok.bad(format!("expected node {i}, got {index}")));
        }
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

        let mut cache_lines = Vec::new();
        while cursor.peek_word() == Some("line") {
            let mut tok = cursor.next("a line record")?;
            tok.literal("line")?;
            let node = tok.u32("line neighbor")?;
            let meas = tok.u32("line measurement")?;
            let measurement =
                u8::try_from(meas).map_err(|_| tok.bad("line measurement out of range"))?;
            tok.literal("n")?;
            let count = tok.u32("pair count")?;
            tok.literal("stats")?;
            let stats = SuffStats {
                n: count,
                sx: tok.f64_bits("sx")?,
                sy: tok.f64_bits("sy")?,
                sxy: tok.f64_bits("sxy")?,
                sxx: tok.f64_bits("sxx")?,
                syy: tok.f64_bits("syy")?,
            };
            tok.literal("pairs")?;
            let mut pairs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let x = tok.f64_bits("pair x")?;
                let y = tok.f64_bits("pair y")?;
                pairs.push((x, y));
            }
            tok.done()?;
            cache_lines.push(LineCheckpoint {
                node,
                measurement,
                stats,
                pairs,
            });
        }

        nodes.push(NodeCheckpoint {
            mode,
            rep_of,
            represents,
            forced_active,
            refusing_invites,
            rr_after,
            lines: cache_lines,
        });
    }

    let mut tok = cursor.next("the quality line")?;
    tok.literal("quality")?;
    tok.literal("alive")?;
    let q_alive = tok.u64("alive count")? as usize;
    tok.literal("active")?;
    let q_active = tok.u64("active count")? as usize;
    tok.literal("passive")?;
    let q_passive = tok.u64("passive count")? as usize;
    tok.literal("undefined")?;
    let q_undefined = tok.u64("undefined count")? as usize;
    tok.literal("stale")?;
    let q_stale = tok.u64("stale count")? as usize;
    tok.literal("coverage")?;
    let q_coverage = tok.f64_bits("coverage")?;
    tok.done()?;
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
        stored_quality: QualitySummary {
            nodes: n,
            alive: q_alive,
            active: q_active,
            passive: q_passive,
            undefined: q_undefined,
            stale_links: q_stale,
            coverage: q_coverage,
        },
    })
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
}
