//! Write-ahead log and checkpoint/recovery for the serving engine.
//!
//! An on-call RCA service must survive being killed mid-stream: redeploys,
//! OOM kills and node failures all land during exactly the incident storms
//! the service exists for. The engine therefore journals its durable
//! state transitions — in-order event commits, per-shard online-index
//! epoch publishes and OCE feedback corrections — as checksummed JSON
//! lines, and periodically folds the journal into a single
//! [`WalRecord::Checkpoint`] carrying the committed records plus a
//! serialized [`ShardedCheckpoint`] of the retrieval index. The index
//! checkpoint names the trained history the index was warmed from by a
//! [`WarmBase`](rcacopilot_core::retrieval::WarmBase) digest and lists
//! only the entries inserted after it, so a fold costs what the stream
//! added, not the whole index.
//!
//! **Recovery invariant**: a run resumed from a WAL produces a prediction
//! log byte-identical to the uninterrupted run, for any worker count and
//! any crash point. Three properties make this hold:
//!
//! 1. Commits are journaled at the in-order watermark, so the WAL always
//!    holds a *prefix* of the stream's records.
//! 2. The JSON shim prints `f64` with shortest-round-trip formatting, so
//!    every confidence/completeness survives the round trip exactly and
//!    re-rendered [`EventRecord::log_line`]s are byte-identical.
//! 3. Recovery re-inserts index entries in commit order — the
//!    deterministic category router reassigns shards and global sequence
//!    numbers identically — and publishes every shard once; epoch-batch
//!    boundaries are immaterial to retrieval because visibility is
//!    filtered per query by `visible_from`. A checkpoint therefore
//!    restores correctly into *any* shard count, and [`WalRecord::Epoch`]
//!    records are tagged with the shard they published purely for
//!    journal/epoch-counter continuity.
//!
//! **Record framing**: each line is `crc32c:<8 hex digits>:<JSON>`, the
//! CRC-32C of the payload guarding against bit rot and torn pages. A
//! line without the frame carries no checksum, so it is never trusted.
//! Corruption is never fatal: a record that fails its CRC, lacks the
//! frame or does not parse becomes a counted, quarantined dead letter
//! ([`WriteAheadLog::quarantined`]), and the loader *resyncs forward* —
//! a zeroed page that eats a newline fuses junk with the next record on
//! one physical line, so the loader scans for the next `crc32c:` frame
//! marker inside the line and salvages the suffix. Because a quarantined
//! commit breaks its tenant's gapless prefix, recovery then prunes that
//! tenant's now-unreachable later records (counted in
//! [`WriteAheadLog::dropped_records`]; a later [`WalRecord::Checkpoint`]
//! heals the stream, since it carries the full prefix) — so a loaded
//! journal is always internally consistent and
//! [`WriteAheadLog::recover`]'s strict gap check only ever fires on
//! genuine misuse, exactly as before.
//!
//! The journal writes through a byte-sink abstraction
//! ([`crate::storage::WalSink`]) with pluggable backends:
//!
//! - the default in-memory line buffer (no sink), used by tests and the
//!   virtual-time benches;
//! - a durable fsync'd append-only file ([`WriteAheadLog::open_durable`]
//!   → [`crate::storage::DurableFile`]): every
//!   [`WriteAheadLog::append`] writes its line and `fsync`s before
//!   returning, and checkpoint folding rewrites through a temp file +
//!   atomic rename;
//! - a seeded simulated disk ([`crate::storage::SimDisk`], via
//!   [`WriteAheadLog::with_sink`]) whose crash images drive the WAL
//!   torture fuzzer.
//!
//! Sink failures degrade, never abort: transient write/fsync errors are
//! retried once (counted in [`WriteAheadLog::sink_retries`] /
//! [`WriteAheadLog::fsync_failures`]); a persistent failure detaches the
//! sink ([`WriteAheadLog::sink_failures`]) and the journal carries on in
//! memory. `ENOSPC` is special-cased: the sink is *kept* and the journal
//! enters a **durability-paused** span ([`WriteAheadLog::is_paused`]) —
//! appends are withheld from the sink (counted in
//! [`WriteAheadLog::paused_appends`]) until the engine's next
//! checkpoint fold rewrites the whole journal, which both frees space
//! and lands every withheld record, resuming durability.
//!
//! **Multi-tenancy**: every record is tagged with its owning
//! [`TenantId`], and sequence numbers are *tenant-local* — each tenant's
//! commits form their own gapless prefix. [`WriteAheadLog::split_tenants`]
//! partitions an interleaved journal into per-tenant journals,
//! [`WriteAheadLog::merge_tenants`] interleaves per-tenant journals back
//! by virtual anchor time (ties broken by tenant id, then journal order),
//! and [`WriteAheadLog::recover_tenants`] recovers each tenant's stream
//! independently — a torn tail or a quarantined mid-log record in one
//! tenant's stream rolls back only that tenant's watermark.
//! [`WriteAheadLog::adopt`] writes a merged journal back through an
//! existing durable sink.

use crate::engine::EventRecord;
use crate::storage::{crc32c, is_out_of_space, DurableFile, WalSink};
use rcacopilot_core::retrieval::{BaseMismatch, CheckpointEntry, ShardedCheckpoint};
use rcacopilot_telemetry::ids::TenantId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// One journaled state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// Event `seq` committed at the in-order watermark. `entry` carries
    /// the online-index insertion performed at commit time (`None` for
    /// shed/failed events or frozen-index mode). The owning tenant rides
    /// on the committed record itself.
    Commit {
        /// Tenant-local stream sequence number (== position in the
        /// tenant's record prefix).
        seq: usize,
        /// The committed record.
        record: EventRecord,
        /// Index entry inserted at this commit, if any.
        entry: Option<CheckpointEntry>,
    },
    /// Shard `shard` of tenant `tenant`'s online index published epoch
    /// `epoch` after commit `committed`.
    Epoch {
        /// Shard that published.
        shard: usize,
        /// The shard's published epoch number.
        epoch: u64,
        /// Commits covered by the epoch.
        committed: usize,
        /// Tenant whose index partition published.
        tenant: TenantId,
    },
    /// An OCE corrected a served prediction: the corrected entry is
    /// re-inserted into its category's shard on replay, visible to
    /// queries from its `visible_from` watermark.
    Feedback {
        /// The corrected entry and its visibility watermark.
        entry: CheckpointEntry,
        /// Tenant whose serving history is corrected.
        tenant: TenantId,
    },
    /// A checkpoint folding every earlier record of one tenant's stream:
    /// the tenant's full committed prefix plus its serialized index
    /// state.
    Checkpoint {
        /// Number of committed events in the prefix.
        committed: usize,
        /// The committed records, stream order.
        records: Vec<EventRecord>,
        /// Serialized online-index state: the entries after its warm
        /// base, which it names (`None` in frozen-index mode).
        index: Option<ShardedCheckpoint>,
        /// Tenant whose stream the checkpoint folds.
        tenant: TenantId,
    },
}

impl WalRecord {
    /// The tenant stream this record belongs to. [`TenantId::default`]
    /// (tenant 0) is the single-tenant deployment.
    pub fn tenant(&self) -> TenantId {
        match self {
            WalRecord::Commit { record, .. } => record.tenant,
            WalRecord::Epoch { tenant, .. }
            | WalRecord::Feedback { tenant, .. }
            | WalRecord::Checkpoint { tenant, .. } => *tenant,
        }
    }
}

/// Why a journal's records could not be interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A kept line failed to parse. Loading never produces this (corrupt
    /// lines are quarantined at load time); it guards
    /// [`WriteAheadLog::records`] against in-memory misuse.
    Corrupt {
        /// Zero-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// Commit sequence numbers skipped or repeated a slot.
    Gap {
        /// The next sequence number the prefix needed.
        expected: usize,
        /// The sequence number found.
        found: usize,
    },
    /// The journal holds more commits than the resumed stream plans
    /// events, so it was written for another stream.
    LongerThanStream {
        /// Commits the journal holds.
        committed: usize,
        /// Events the stream plans.
        events: usize,
    },
    /// The journal's index checkpoint names a warm base other than the
    /// resuming engine's trained history, so it cannot be restored.
    WarmBase(BaseMismatch),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Corrupt { line, message } => {
                write!(f, "corrupt WAL line {line}: {message}")
            }
            WalError::Gap { expected, found } => {
                write!(f, "WAL commit gap: expected seq {expected}, found {found}")
            }
            WalError::LongerThanStream { committed, events } => write!(
                f,
                "WAL holds {committed} commits but the stream plans only {events} events"
            ),
            WalError::WarmBase(mismatch) => write!(f, "WAL checkpoint: {mismatch}"),
        }
    }
}

impl std::error::Error for WalError {}

/// A corrupt journal record quarantined as a dead letter at load time
/// instead of failing recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// Zero-based physical line index in the loaded image.
    pub line: usize,
    /// Why the record was rejected (CRC mismatch, parse failure, …).
    pub reason: String,
    /// A short prefix of the rejected bytes, for forensics.
    pub preview: String,
}

/// What recovery reconstructed from a journal.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Committed event records, stream order (the prefix `0..committed`).
    pub records: Vec<EventRecord>,
    /// Index checkpoint to rebuild from, if one was folded. It restores
    /// over the warm base it names ([`ServeEngine::run_with_wal`] passes
    /// the copilot's trained history).
    ///
    /// [`ServeEngine::run_with_wal`]: crate::engine::ServeEngine::run_with_wal
    pub checkpoint: Option<ShardedCheckpoint>,
    /// Index entries journaled after the checkpoint — commits and
    /// feedback corrections interleaved — in journal order.
    pub entries: Vec<CheckpointEntry>,
    /// Last journaled epoch number per shard (absent if the shard never
    /// published after the checkpoint).
    pub shard_epochs: BTreeMap<usize, u64>,
}

impl Recovery {
    /// Number of committed events recovered.
    pub fn committed(&self) -> usize {
        self.records.len()
    }

    /// True when the journal held nothing (a fresh run).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.checkpoint.is_none()
    }
}

/// Frame marker opening every checksummed journal line.
const FRAME_PREFIX: &str = "crc32c:";

/// Frames one serialized record: `crc32c:<8 hex>:<payload>`.
fn frame(payload: &str) -> String {
    format!("{FRAME_PREFIX}{:08x}:{payload}", crc32c(payload.as_bytes()))
}

/// Parses one journal line, which must be a checksummed frame.
fn parse_wal_line(line: &str) -> Result<WalRecord, String> {
    let rest = line
        .strip_prefix(FRAME_PREFIX)
        .ok_or_else(|| "no crc32c frame".to_string())?;
    let hex = rest
        .get(..8)
        .ok_or_else(|| "truncated crc32c frame header".to_string())?;
    if rest.as_bytes().get(8) != Some(&b':') {
        return Err("malformed crc32c frame header".to_string());
    }
    let payload = rest.get(9..).unwrap_or_default();
    let framed = u32::from_str_radix(hex, 16).map_err(|_| format!("bad crc32c hex {hex:?}"))?;
    let computed = crc32c(payload.as_bytes());
    if framed != computed {
        return Err(format!(
            "crc32c mismatch: framed {framed:08x}, computed {computed:08x}"
        ));
    }
    serde_json::from_str(payload).map_err(|e| format!("checksummed payload unparseable: {e}"))
}

/// The durable byte form of journal lines: each one newline-terminated.
fn serialize_lines(lines: &[String]) -> String {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A short, char-boundary-safe prefix of rejected bytes.
fn preview(s: &str) -> String {
    const MAX: usize = 48;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// The engine's journal: an append-only buffer of framed [`WalRecord`]
/// lines with checkpoint folding, optionally written through a
/// [`WalSink`] backend (durable file, simulated disk).
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    lines: Vec<String>,
    /// Commits folded into the last installed checkpoint.
    checkpointed: usize,
    /// Byte-sink backend, when opened via [`WriteAheadLog::open_durable`]
    /// or [`WriteAheadLog::with_sink`].
    sink: Option<Box<dyn WalSink>>,
    /// Durability paused: the sink is attached but `ENOSPC` blocked the
    /// last operation; appends are withheld until a fold frees space.
    paused: bool,
    /// Persistent sink I/O failures absorbed by detaching the sink.
    sink_failures: u64,
    /// Sink fsync attempts that returned an error.
    fsync_failures: u64,
    /// Transient sink errors retried in place.
    sink_retries: u64,
    /// Sink operations refused with `ENOSPC`.
    enospc_events: u64,
    /// Durability-paused spans entered.
    paused_spans: u64,
    /// Appends withheld from the sink while durability was paused (or
    /// bounced by the `ENOSPC` that started the pause).
    paused_appends: u64,
    /// Corrupt records quarantined as dead letters at load time.
    quarantined: Vec<QuarantinedRecord>,
    /// Valid records dropped at load time because a quarantined record
    /// broke their tenant's commit chain.
    dropped_records: u64,
    /// A torn final line (crash mid-append) was dropped at load time.
    torn_tail: bool,
}

impl Clone for WriteAheadLog {
    /// Clones the in-memory journal state. The clone is detached from any
    /// sink backend: two handles appending to one sink would interleave
    /// corruptly, so only the original keeps it.
    fn clone(&self) -> Self {
        WriteAheadLog {
            lines: self.lines.clone(),
            checkpointed: self.checkpointed,
            sink: None,
            paused: false,
            sink_failures: self.sink_failures,
            fsync_failures: self.fsync_failures,
            sink_retries: self.sink_retries,
            enospc_events: self.enospc_events,
            paused_spans: self.paused_spans,
            paused_appends: self.paused_appends,
            quarantined: self.quarantined.clone(),
            dropped_records: self.dropped_records,
            torn_tail: self.torn_tail,
        }
    }
}

impl WriteAheadLog {
    /// An empty in-memory journal.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Opens (or creates) a durable journal at `path`, backed by a
    /// [`DurableFile`] — which first removes any stale checkpoint
    /// `.tmp` a crash mid-fold left beside the journal. Existing
    /// contents are parsed exactly like [`WriteAheadLog::load`]; if the
    /// parse dropped anything (torn tail, quarantined corruption,
    /// pruned gap), the file is rewritten to the consistent prefix so
    /// appends resume from a clean state. Every subsequent
    /// [`WriteAheadLog::append`] writes through to the file and `fsync`s
    /// before returning.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from reading, creating or rewriting the
    /// file. Corruption is *not* an error: corrupt records come back
    /// quarantined ([`WriteAheadLog::quarantined`]).
    pub fn open_durable(path: impl AsRef<Path>) -> std::io::Result<Self> {
        WriteAheadLog::with_sink(Box::new(DurableFile::open(path)?))
    }

    /// Opens a journal over an arbitrary [`WalSink`] backend: reads the
    /// sink's contents, loads them with quarantine/prune semantics, and
    /// — if anything was dropped — rewrites the sink to the consistent
    /// prefix before attaching it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from reading or rewriting the sink.
    pub fn with_sink(mut sink: Box<dyn WalSink>) -> std::io::Result<Self> {
        let contents = sink.contents()?;
        let mut wal = WriteAheadLog::load_bytes(&contents);
        let good = wal.serialized();
        if good.as_bytes() != contents.as_slice() {
            sink.rewrite(good.as_bytes())?;
        }
        wal.sink = Some(sink);
        Ok(wal)
    }

    /// True when this journal writes through to a sink backend.
    pub fn is_durable(&self) -> bool {
        self.sink.is_some()
    }

    /// True when the journal is in a durability-paused span: the sink is
    /// attached but `ENOSPC` blocked it, and appends are withheld until
    /// a checkpoint fold frees space.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// True when the engine should fold a checkpoint *now* to free sink
    /// space and resume durability, regardless of the fold cadence.
    pub fn needs_space_fold(&self) -> bool {
        self.paused && self.sink.is_some()
    }

    fn pause(&mut self) {
        if !self.paused {
            self.paused = true;
            self.paused_spans += 1;
        }
    }

    /// Appends one record. With a sink attached the framed line is
    /// written and fsync'd before this returns — that sync is the
    /// durability barrier acknowledging the record. Failures degrade
    /// instead of aborting: transient errors are retried once, `ENOSPC`
    /// enters the durability-paused span (the sink is kept; the next
    /// successful fold re-lands everything), and a persistent error
    /// detaches the sink (counted in [`WriteAheadLog::sink_failures`]).
    pub fn append(&mut self, record: &WalRecord) {
        let payload = serde_json::to_string(record).expect("WAL records are serializable");
        let line = frame(&payload);
        self.durable_append_line(&line);
        self.lines.push(line);
    }

    /// Writes one framed line + newline through the sink with the
    /// retry/pause/detach policy.
    fn durable_append_line(&mut self, line: &str) {
        if self.paused {
            if self.sink.is_some() {
                self.paused_appends += 1;
            }
            return;
        }
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let wrote = match sink.append(&buf) {
            Ok(()) => Ok(()),
            Err(e) if is_out_of_space(&e) => Err(e),
            Err(_) => {
                // A failed write may have landed partial bytes; the
                // retried full line then follows them. Load-time resync
                // handles exactly that shape (junk fused with a valid
                // frame on one line).
                self.sink_retries += 1;
                sink.append(&buf)
            }
        };
        let result = match wrote {
            Err(e) => Err(e),
            Ok(()) => match sink.sync() {
                Ok(()) => Ok(()),
                Err(e) => {
                    self.fsync_failures += 1;
                    if is_out_of_space(&e) {
                        Err(e)
                    } else {
                        self.sink_retries += 1;
                        match sink.sync() {
                            Ok(()) => Ok(()),
                            Err(e2) => {
                                self.fsync_failures += 1;
                                Err(e2)
                            }
                        }
                    }
                }
            },
        };
        match result {
            Ok(()) => {}
            Err(e) if is_out_of_space(&e) => {
                self.enospc_events += 1;
                self.pause();
                // The bounced record lives only in memory until the
                // next successful fold rewrites the whole journal.
                self.paused_appends += 1;
            }
            Err(_) => {
                self.sink = None;
                self.sink_failures += 1;
            }
        }
    }

    /// Rewrites the sink to the journal's current serialized form, with
    /// one retry for transient errors. Success covers every withheld
    /// append (the rewrite carries the whole journal), so it ends any
    /// durability-paused span.
    fn rewrite_sink(&mut self) {
        // An in-memory journal has no sink: skip copying the journal.
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let contents = serialize_lines(&self.lines);
        let result = match sink.rewrite(contents.as_bytes()) {
            Ok(()) => Ok(()),
            Err(e) if is_out_of_space(&e) => Err(e),
            Err(_) => {
                self.sink_retries += 1;
                sink.rewrite(contents.as_bytes())
            }
        };
        match result {
            Ok(()) => self.paused = false,
            Err(e) if is_out_of_space(&e) => {
                self.enospc_events += 1;
                self.pause();
            }
            Err(_) => {
                self.sink = None;
                self.sink_failures += 1;
            }
        }
    }

    /// Persistent sink I/O failures absorbed so far (each one detaches
    /// the sink, so the count is 0 or 1 per open; it accumulates across
    /// [`WriteAheadLog::adopt`]).
    pub fn sink_failures(&self) -> u64 {
        self.sink_failures
    }

    /// Sink fsync attempts that returned an error (transient or fatal).
    pub fn fsync_failures(&self) -> u64 {
        self.fsync_failures
    }

    /// Cumulative wall nanoseconds the sink has spent inside durability
    /// barriers ([`WalSink::sync_nanos`]). 0 without a sink, and 0 for
    /// virtual backends — real time only accrues under a
    /// [`DurableFile`], which is how fsync stalls become visible in the
    /// engine's real-clock observability plane.
    pub fn fsync_nanos(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.sync_nanos())
    }

    /// Transient sink errors retried in place.
    pub fn sink_retries(&self) -> u64 {
        self.sink_retries
    }

    /// Sink operations refused with `ENOSPC`.
    pub fn enospc_events(&self) -> u64 {
        self.enospc_events
    }

    /// Durability-paused spans entered (see [`WriteAheadLog::is_paused`]).
    pub fn durability_paused_spans(&self) -> u64 {
        self.paused_spans
    }

    /// Appends withheld from the sink during paused spans.
    pub fn paused_appends(&self) -> u64 {
        self.paused_appends
    }

    /// Corrupt records quarantined as dead letters at load time.
    pub fn quarantined(&self) -> &[QuarantinedRecord] {
        &self.quarantined
    }

    /// Valid records dropped at load time because a quarantined record
    /// broke their tenant's commit chain (a later checkpoint heals it).
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// True when loading dropped a torn final line (crash mid-append).
    pub fn had_torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Replaces the whole journal with a single checkpoint record for
    /// `tenant`'s stream — the journal-side compaction that bounds replay
    /// work. With a sink attached the backend is rewritten atomically
    /// (temp file + rename for [`DurableFile`]); because the rewrite is
    /// smaller than the journal it folds, this is also how the engine
    /// answers `ENOSPC`: fold, rewrite, resume durability.
    pub fn install_checkpoint(
        &mut self,
        records: Vec<EventRecord>,
        index: Option<ShardedCheckpoint>,
        tenant: TenantId,
    ) {
        let committed = records.len();
        self.lines.clear();
        let record = WalRecord::Checkpoint {
            committed,
            records,
            index,
            tenant,
        };
        let payload = serde_json::to_string(&record).expect("WAL records are serializable");
        self.lines.push(frame(&payload));
        self.checkpointed = committed;
        self.rewrite_sink();
    }

    /// Commits folded into the last installed checkpoint.
    pub fn checkpointed(&self) -> usize {
        self.checkpointed
    }

    /// Number of journal lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The durable byte form: one framed record per line.
    pub fn serialized(&self) -> String {
        serialize_lines(&self.lines)
    }

    /// Parses a serialized journal. Never fails:
    ///
    /// - a final line that fails to parse with no salvageable suffix is
    ///   a torn tail (crash mid-append) and is silently dropped;
    /// - any other unparseable run is quarantined as a dead letter, with
    ///   scan-forward resync salvaging a valid framed record fused onto
    ///   the same physical line by a lost newline;
    /// - when anything was quarantined, records made unreachable by a
    ///   broken tenant commit chain are pruned (counted in
    ///   [`WriteAheadLog::dropped_records`]) so the journal stays
    ///   gapless per tenant — a later checkpoint heals its stream.
    pub fn load(serialized: &str) -> Self {
        let lines: Vec<&str> = serialized
            .lines()
            .filter(|l| !l.trim().is_empty())
            .collect();
        let mut kept: Vec<(String, WalRecord)> = Vec::with_capacity(lines.len());
        let mut quarantined: Vec<QuarantinedRecord> = Vec::new();
        let mut torn_tail = false;
        let last = lines.len().saturating_sub(1);
        for (i, raw) in lines.iter().enumerate() {
            match parse_wal_line(raw) {
                Ok(record) => kept.push(((*raw).to_string(), record)),
                Err(reason) => {
                    let mut salvaged = None;
                    for (idx, _) in raw.match_indices(FRAME_PREFIX) {
                        if idx == 0 {
                            continue; // already failed at the line start
                        }
                        let suffix = &raw[idx..];
                        if let Ok(record) = parse_wal_line(suffix) {
                            salvaged = Some((idx, suffix.to_string(), record));
                            break;
                        }
                    }
                    match salvaged {
                        Some((idx, line, record)) => {
                            quarantined.push(QuarantinedRecord {
                                line: i,
                                reason,
                                preview: preview(&raw[..idx]),
                            });
                            kept.push((line, record));
                        }
                        None if i == last => torn_tail = true,
                        None => quarantined.push(QuarantinedRecord {
                            line: i,
                            reason,
                            preview: preview(raw),
                        }),
                    }
                }
            }
        }
        let mut dropped_records = 0u64;
        if !quarantined.is_empty() {
            // A quarantined commit breaks its tenant's gapless prefix:
            // prune that tenant's later records so the surviving journal
            // is a valid per-tenant prefix (and appending to it can
            // never create a fatally gapped journal). A checkpoint
            // carries the full prefix, so it heals its stream.
            let mut expected: BTreeMap<TenantId, usize> = BTreeMap::new();
            let mut broken: BTreeSet<TenantId> = BTreeSet::new();
            let mut pruned = Vec::with_capacity(kept.len());
            for (line, record) in kept {
                let tenant = record.tenant();
                match &record {
                    WalRecord::Checkpoint { committed, .. } => {
                        broken.remove(&tenant);
                        expected.insert(tenant, *committed);
                        pruned.push((line, record));
                    }
                    WalRecord::Commit { seq, .. } => {
                        let want = expected.entry(tenant).or_insert(0);
                        if broken.contains(&tenant) || *seq != *want {
                            broken.insert(tenant);
                            dropped_records += 1;
                        } else {
                            *want += 1;
                            pruned.push((line, record));
                        }
                    }
                    _ => {
                        if broken.contains(&tenant) {
                            dropped_records += 1;
                        } else {
                            pruned.push((line, record));
                        }
                    }
                }
            }
            kept = pruned;
        }
        let mut checkpointed = 0;
        for (_, record) in &kept {
            if let WalRecord::Checkpoint { committed, .. } = record {
                checkpointed = *committed;
            }
        }
        WriteAheadLog {
            lines: kept.into_iter().map(|(line, _)| line).collect(),
            checkpointed,
            quarantined,
            dropped_records,
            torn_tail,
            ..WriteAheadLog::default()
        }
    }

    /// [`WriteAheadLog::load`] over raw media bytes: bit rot can leave
    /// invalid UTF-8, which is replaced lossily and then quarantined by
    /// the normal parse path.
    pub fn load_bytes(bytes: &[u8]) -> Self {
        WriteAheadLog::load(&String::from_utf8_lossy(bytes))
    }

    /// Parses every journaled record.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] if an in-memory line does not parse — loaded
    /// journals never contain one (corruption is quarantined at load).
    pub fn records(&self) -> Result<Vec<WalRecord>, WalError> {
        self.lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                parse_wal_line(line).map_err(|message| WalError::Corrupt { line: i, message })
            })
            .collect()
    }

    /// Folds the journal into the state a resumed run starts from. The
    /// commit prefix must be gapless ([`WalError::Gap`] otherwise) —
    /// load-time pruning guarantees that for anything corruption did to
    /// a stored journal, so a gap here means in-memory misuse (e.g.
    /// recovering an interleaved multi-tenant journal without
    /// [`WriteAheadLog::recover_tenants`]).
    pub fn recover(&self) -> Result<Recovery, WalError> {
        let mut recovery = Recovery::default();
        for record in self.records()? {
            match record {
                WalRecord::Checkpoint {
                    committed: _,
                    records,
                    index,
                    tenant: _,
                } => {
                    recovery.records = records;
                    recovery.checkpoint = index;
                    recovery.entries.clear();
                    recovery.shard_epochs.clear();
                }
                WalRecord::Commit { seq, record, entry } => {
                    if seq != recovery.records.len() {
                        return Err(WalError::Gap {
                            expected: recovery.records.len(),
                            found: seq,
                        });
                    }
                    recovery.records.push(record);
                    recovery.entries.extend(entry);
                }
                WalRecord::Feedback { entry, tenant: _ } => {
                    recovery.entries.push(entry);
                }
                WalRecord::Epoch {
                    shard,
                    epoch,
                    committed: _,
                    tenant: _,
                } => {
                    recovery.shard_epochs.insert(shard, epoch);
                }
            }
        }
        Ok(recovery)
    }

    /// Splits a multi-tenant journal into one in-memory journal per
    /// tenant, each preserving its tenant's record order. A record's
    /// owner comes from [`WalRecord::tenant`]; a single-tenant journal
    /// splits into one part keyed by [`TenantId::default`].
    ///
    /// # Errors
    ///
    /// Propagates [`WriteAheadLog::records`] errors.
    pub fn split_tenants(&self) -> Result<BTreeMap<TenantId, WriteAheadLog>, WalError> {
        let mut parts: BTreeMap<TenantId, WriteAheadLog> = BTreeMap::new();
        for (line, record) in self.lines.iter().zip(self.records()?) {
            let part = parts.entry(record.tenant()).or_default();
            if let WalRecord::Checkpoint { committed, .. } = &record {
                part.checkpointed = *committed;
            }
            part.lines.push(line.clone());
        }
        Ok(parts)
    }

    /// Recovers each tenant's stream independently: the journal is split
    /// by owner and every part folds through [`WriteAheadLog::recover`]
    /// with its own tenant-local gap check. This is the bulkhead property
    /// a shared journal must give recovery: a torn tail or a quarantined
    /// corrupt record only ever rolls back the tenant that owned it —
    /// every other tenant's committed watermark is untouched.
    ///
    /// [`WriteAheadLog::recover`] itself remains the single-tenant path;
    /// calling it on an interleaved journal fails its global gap check by
    /// design (tenant-local sequence numbers restart at 0).
    ///
    /// # Errors
    ///
    /// Propagates per-part [`WriteAheadLog::recover`] errors.
    pub fn recover_tenants(&self) -> Result<BTreeMap<TenantId, Recovery>, WalError> {
        self.split_tenants()?
            .into_iter()
            .map(|(tenant, part)| Ok((tenant, part.recover()?)))
            .collect()
    }

    /// Interleaves per-tenant journals into one multi-tenant journal.
    ///
    /// Ordering is by *virtual-time anchor*: each record sorts at the
    /// arrival instant of the latest commit at or before it in its own
    /// stream (records ahead of any commit anchor at 0; a checkpoint
    /// anchors at its last folded record), with ties broken by tenant id
    /// and then stream position — fully deterministic, and stable within
    /// every tenant, so [`WriteAheadLog::split_tenants`] is an exact
    /// inverse. The merged journal is in-memory with `checkpointed == 0`:
    /// fold state is per-tenant and only meaningful on the parts.
    ///
    /// # Errors
    ///
    /// Propagates [`WriteAheadLog::records`] errors from the parts.
    pub fn merge_tenants(
        parts: &BTreeMap<TenantId, WriteAheadLog>,
    ) -> Result<WriteAheadLog, WalError> {
        let mut keyed: Vec<(u64, u64, usize, &str)> = Vec::new();
        for (tenant, part) in parts {
            let mut anchor = 0u64;
            for (i, record) in part.records()?.iter().enumerate() {
                match record {
                    WalRecord::Commit { record, .. } => anchor = record.at.as_secs(),
                    WalRecord::Checkpoint { records, .. } => {
                        if let Some(last) = records.last() {
                            anchor = last.at.as_secs();
                        }
                    }
                    _ => {}
                }
                keyed.push((anchor, tenant.0, i, part.lines[i].as_str()));
            }
        }
        keyed.sort_unstable_by_key(|&(anchor, tenant, i, _)| (anchor, tenant, i));
        Ok(WriteAheadLog {
            lines: keyed
                .into_iter()
                .map(|(_, _, _, line)| line.to_string())
                .collect(),
            ..WriteAheadLog::default()
        })
    }

    /// Replaces this journal's contents with `other`'s — the write-back
    /// half of a split → per-tenant-run → merge cycle — while keeping
    /// this journal's sink and degradation counters. With a sink the
    /// backend is rewritten atomically, with the same retry / `ENOSPC`
    /// pause / detach policy as a checkpoint fold.
    pub fn adopt(&mut self, other: WriteAheadLog) {
        self.lines = other.lines;
        self.checkpointed = other.checkpointed;
        self.rewrite_sink();
    }

    /// Folds per-tenant journal parts back into this journal — the
    /// single adoption point of the tenant-sharded runtime. Shard
    /// workers journal each tenant into its own in-memory
    /// [`WriteAheadLog`] part (no contention on the durable sink while
    /// they run); after the shards join, this call interleaves the parts
    /// with [`WriteAheadLog::merge_tenants`] and rewrites the durable
    /// backend once through this journal's [`WalSink`], so the sink sees
    /// exactly one writer regardless of how many shards produced the
    /// streams. Because the merge key is `(virtual anchor, tenant,
    /// stream position)`, the adopted journal is byte-identical for any
    /// shard count — including a later recovery into a *different* one.
    ///
    /// # Errors
    ///
    /// Propagates [`WriteAheadLog::records`] errors from the parts.
    pub fn adopt_tenants(
        &mut self,
        parts: &BTreeMap<TenantId, WriteAheadLog>,
    ) -> Result<(), WalError> {
        let merged = WriteAheadLog::merge_tenants(parts)?;
        self.adopt(merged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventOutcome;
    use crate::storage::{SimDisk, SimDiskConfig};
    use rcacopilot_telemetry::{AlertType, Severity, SimTime};
    use std::path::PathBuf;

    fn shed_record(seq: usize) -> EventRecord {
        tenant_record(TenantId::default(), seq, seq as u64 * 60)
    }

    fn tenant_record(tenant: TenantId, seq: usize, at_secs: u64) -> EventRecord {
        EventRecord {
            seq,
            incident_idx: seq,
            at: SimTime::from_secs(at_secs),
            severity: Severity::Sev3,
            alert_type: AlertType::default(),
            tenant,
            outcome: EventOutcome::Shed {
                backlog_secs: 42 + seq as u64,
            },
        }
    }

    fn commit(seq: usize) -> WalRecord {
        WalRecord::Commit {
            seq,
            record: shed_record(seq),
            entry: None,
        }
    }

    fn tenant_commit(tenant: TenantId, seq: usize, at_secs: u64) -> WalRecord {
        WalRecord::Commit {
            seq,
            record: tenant_record(tenant, seq, at_secs),
            entry: None,
        }
    }

    #[test]
    fn append_serialize_load_round_trips() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&commit(1));
        wal.append(&WalRecord::Epoch {
            shard: 0,
            epoch: 3,
            committed: 2,
            tenant: TenantId::default(),
        });
        wal.append(&WalRecord::Epoch {
            shard: 2,
            epoch: 5,
            committed: 2,
            tenant: TenantId::default(),
        });
        let loaded = WriteAheadLog::load(&wal.serialized());
        assert_eq!(loaded.records().unwrap(), wal.records().unwrap());
        assert!(loaded.quarantined().is_empty());
        assert!(!loaded.had_torn_tail());
        let recovery = loaded.recover().expect("gapless");
        assert_eq!(recovery.committed(), 2);
        assert_eq!(recovery.shard_epochs.get(&0), Some(&3));
        assert_eq!(recovery.shard_epochs.get(&2), Some(&5));
        assert_eq!(recovery.shard_epochs.get(&1), None);
        assert_eq!(recovery.records[1].log_line(), shed_record(1).log_line());
    }

    #[test]
    fn lines_are_crc32c_framed_and_bare_lines_are_dead_letters() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        assert!(
            wal.serialized().starts_with("crc32c:"),
            "appends are framed"
        );
        let framed = |seq| format!("{}\n", frame(&serde_json::to_string(&commit(seq)).unwrap()));
        let bare = |seq| format!("{}\n", serde_json::to_string(&commit(seq)).unwrap());
        // A bare JSON line carries no checksum, so it is never trusted:
        // mid-log it is quarantined and strands the commits past it...
        let loaded = WriteAheadLog::load(&format!("{}{}{}", framed(0), bare(1), framed(2)));
        assert_eq!(loaded.quarantined().len(), 1);
        assert_eq!(loaded.quarantined()[0].line, 1);
        assert_eq!(loaded.quarantined()[0].reason, "no crc32c frame");
        assert_eq!(loaded.dropped_records(), 1, "commit 2 is stranded");
        assert_eq!(loaded.recover().unwrap().committed(), 1);
        assert_eq!(loaded.serialized(), framed(0));
        // ...and as the last line it is dropped as a torn tail.
        let loaded = WriteAheadLog::load(&format!("{}{}", framed(0), bare(1)));
        assert!(loaded.had_torn_tail());
        assert!(loaded.quarantined().is_empty());
        assert_eq!(loaded.recover().unwrap().committed(), 1);
    }

    #[test]
    fn checkpoint_folds_and_bounds_replay() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&commit(1));
        wal.install_checkpoint(
            vec![shed_record(0), shed_record(1)],
            None,
            TenantId::default(),
        );
        assert_eq!(wal.len(), 1, "checkpoint replaces the journal");
        assert_eq!(wal.checkpointed(), 2);
        wal.append(&commit(2));
        let recovery = wal.recover().expect("gapless");
        assert_eq!(recovery.committed(), 3);
        assert!(recovery.checkpoint.is_none());
        assert!(!recovery.is_empty());
    }

    #[test]
    fn feedback_records_replay_in_journal_order() {
        use rcacopilot_core::retrieval::HistoricalEntry;
        let corrected = CheckpointEntry {
            entry: HistoricalEntry {
                id: 0,
                category: "CorrectedCategory".to_string(),
                summary: "OCE-corrected summary".to_string(),
                at: SimTime::from_secs(120),
                embedding: vec![0.5, -0.25],
            },
            visible_from: SimTime::from_secs(600),
        };
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&WalRecord::Feedback {
            entry: corrected.clone(),
            tenant: TenantId::default(),
        });
        wal.append(&commit(1));
        let loaded = WriteAheadLog::load(&wal.serialized());
        let recovery = loaded.recover().expect("gapless");
        assert_eq!(recovery.committed(), 2);
        assert_eq!(recovery.entries, vec![corrected.clone()]);
        // A checkpoint folds feedback into the index state like any
        // other entry: replay starts clean after it.
        wal.install_checkpoint(
            vec![shed_record(0), shed_record(1)],
            None,
            TenantId::default(),
        );
        assert!(wal.recover().unwrap().entries.is_empty());
    }

    #[test]
    fn torn_final_line_is_dropped_and_mid_log_corruption_is_quarantined() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&commit(1));
        let mut torn = wal.serialized();
        torn.truncate(torn.len() - 10); // rip the tail of the last line
        let loaded = WriteAheadLog::load(&torn);
        assert_eq!(loaded.recover().unwrap().committed(), 1);
        assert!(loaded.had_torn_tail());
        assert!(
            loaded.quarantined().is_empty(),
            "a torn tail is not corruption"
        );

        // Junk *before* valid records: quarantined, never fatal — and
        // since the junk was no commit, the chain is intact.
        let corrupt = format!("not json at all\n{}", wal.serialized());
        let loaded = WriteAheadLog::load(&corrupt);
        assert_eq!(loaded.quarantined().len(), 1);
        assert_eq!(loaded.quarantined()[0].line, 0);
        assert_eq!(loaded.quarantined()[0].preview, "not json at all");
        assert_eq!(loaded.dropped_records(), 0);
        assert_eq!(loaded.recover().unwrap().committed(), 2);

        // A corrupted *commit* quarantines that record and prunes the
        // records stranded past the break.
        let mut flipped = wal.serialized().into_bytes();
        flipped[20] ^= 0x40; // damage commit 0's line
        let loaded = WriteAheadLog::load_bytes(&flipped);
        assert_eq!(loaded.quarantined().len(), 1);
        assert!(
            loaded.quarantined()[0].reason.contains("crc32c mismatch"),
            "{}",
            loaded.quarantined()[0].reason
        );
        assert_eq!(loaded.dropped_records(), 1, "commit 1 is stranded");
        assert_eq!(loaded.recover().unwrap().committed(), 0);
        // The loaded journal stays internally consistent: appending the
        // re-executed commits produces a clean journal again.
        let mut resumed = loaded;
        resumed.append(&commit(0));
        resumed.append(&commit(1));
        let reloaded = WriteAheadLog::load(&resumed.serialized());
        assert!(reloaded.quarantined().is_empty());
        assert_eq!(reloaded.recover().unwrap().committed(), 2);
    }

    #[test]
    fn resync_salvages_the_record_fused_past_a_lost_newline() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&WalRecord::Epoch {
            shard: 0,
            epoch: 1,
            committed: 1,
            tenant: TenantId::default(),
        });
        wal.append(&commit(1));
        // Zero the newline after the epoch line: the epoch record and
        // commit 1 fuse into one physical line.
        let serialized = wal.serialized();
        let lines: Vec<&str> = serialized.lines().collect();
        let newline_at = lines[0].len() + 1 + lines[1].len();
        let mut bytes = serialized.into_bytes();
        assert_eq!(bytes[newline_at], b'\n');
        bytes[newline_at] = 0;
        let loaded = WriteAheadLog::load_bytes(&bytes);
        assert_eq!(loaded.quarantined().len(), 1, "the fused epoch is junk");
        assert_eq!(loaded.dropped_records(), 0);
        let recovery = loaded.recover().expect("commit chain intact");
        assert_eq!(
            recovery.committed(),
            2,
            "commit 1 is salvaged by scan-forward resync"
        );
        assert!(recovery.shard_epochs.is_empty(), "the epoch was the victim");
    }

    #[test]
    fn a_checkpoint_heals_a_tenant_stream_broken_by_corruption() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&commit(1));
        let mut bytes = wal.serialized().into_bytes();
        bytes[20] ^= 0x40; // break commit 0
        let mut text = String::from_utf8_lossy(&bytes).into_owned();
        // A later checkpoint carries the full prefix: everything after
        // it is reachable again.
        let mut healed = WriteAheadLog::new();
        healed.install_checkpoint(
            vec![shed_record(0), shed_record(1), shed_record(2)],
            None,
            TenantId::default(),
        );
        text.push_str(&healed.serialized());
        let chk = serde_json::to_string(&commit(3)).unwrap();
        text.push_str(&frame(&chk));
        text.push('\n');
        let loaded = WriteAheadLog::load(&text);
        assert_eq!(loaded.quarantined().len(), 1);
        assert_eq!(
            loaded.dropped_records(),
            1,
            "commit 1 stranded before the heal"
        );
        assert_eq!(loaded.checkpointed(), 3);
        let recovery = loaded.recover().expect("healed");
        assert_eq!(recovery.committed(), 4);
    }

    /// A scratch path under the workspace `target/` dir, fresh per test.
    fn scratch_path(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/wal-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
        path
    }

    #[test]
    fn durable_journal_round_trips_through_the_file() {
        let path = scratch_path("round_trip.wal");
        {
            let mut wal = WriteAheadLog::open_durable(&path).expect("create");
            assert!(wal.is_durable());
            assert!(!wal.is_paused());
            wal.append(&commit(0));
            wal.append(&commit(1));
        } // drop the handle: durability must not depend on a clean close
        let on_disk = std::fs::read_to_string(&path).expect("journal file");
        let reopened = WriteAheadLog::open_durable(&path).expect("reopen");
        assert_eq!(reopened.serialized(), on_disk);
        assert_eq!(reopened.recover().unwrap().committed(), 2);

        // Clones are in-memory snapshots: they must not share the sink.
        let clone = reopened.clone();
        assert!(!clone.is_durable());
        assert!(reopened.is_durable());
    }

    #[test]
    fn durable_reopen_truncates_a_torn_tail() {
        let path = scratch_path("torn_tail.wal");
        {
            let mut wal = WriteAheadLog::open_durable(&path).expect("create");
            wal.append(&commit(0));
            wal.append(&commit(1));
            wal.append(&commit(2));
        }
        // Crash mid-append: rip the tail of the last fsync'd line.
        let full = std::fs::read_to_string(&path).expect("journal file");
        std::fs::write(&path, &full[..full.len() - 10]).expect("tear tail");

        let mut wal = WriteAheadLog::open_durable(&path).expect("reopen");
        assert_eq!(wal.recover().unwrap().committed(), 2);
        assert!(wal.had_torn_tail());
        // The file itself was truncated back to the parseable prefix...
        let truncated = std::fs::read_to_string(&path).expect("journal file");
        assert_eq!(truncated, wal.serialized());
        assert!(truncated.ends_with('\n'));
        // ...so appending resumes on a clean line boundary.
        wal.append(&commit(2));
        let reopened = WriteAheadLog::open_durable(&path).expect("reopen again");
        assert_eq!(reopened.recover().unwrap().committed(), 3);
    }

    #[test]
    fn durable_checkpoint_rewrites_the_file_atomically() {
        let path = scratch_path("checkpoint.wal");
        let mut wal = WriteAheadLog::open_durable(&path).expect("create");
        wal.append(&commit(0));
        wal.append(&commit(1));
        wal.install_checkpoint(
            vec![shed_record(0), shed_record(1)],
            None,
            TenantId::default(),
        );
        wal.append(&commit(2));

        let on_disk = std::fs::read_to_string(&path).expect("journal file");
        assert_eq!(on_disk, wal.serialized());
        assert!(
            !path.with_extension("tmp").exists(),
            "checkpoint temp file must be renamed away"
        );
        let reopened = WriteAheadLog::open_durable(&path).expect("reopen");
        let recovery = reopened.recover().expect("gapless");
        assert_eq!(recovery.committed(), 3);
        assert_eq!(reopened.checkpointed(), 2, "fold survives reopen");
    }

    #[test]
    fn durable_reopen_quarantines_mid_log_corruption_and_cleans_the_file() {
        let path = scratch_path("corrupt.wal");
        {
            let mut wal = WriteAheadLog::open_durable(&path).expect("create");
            wal.append(&commit(0));
            wal.append(&commit(1));
        }
        let good = std::fs::read_to_string(&path).expect("journal file");
        std::fs::write(&path, format!("not json at all\n{good}")).expect("corrupt");
        // Mid-log corruption is no longer fatal: the journal opens with
        // the junk quarantined and the file rewritten to the clean form.
        let wal = WriteAheadLog::open_durable(&path).expect("reopen succeeds");
        assert_eq!(wal.quarantined().len(), 1);
        assert_eq!(wal.recover().unwrap().committed(), 2);
        let cleaned = std::fs::read_to_string(&path).expect("journal file");
        assert_eq!(cleaned, good, "the rewrite dropped exactly the junk line");
    }

    #[test]
    fn stale_checkpoint_tmp_is_removed_on_open() {
        let path = scratch_path("stale_tmp.wal");
        {
            let mut wal = WriteAheadLog::open_durable(&path).expect("create");
            wal.append(&commit(0));
        }
        // A crash between the checkpoint's temp-file write and its
        // rename leaves the half-written fold beside the journal.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, "half-written checkpoint").expect("stale tmp");
        let wal = WriteAheadLog::open_durable(&path).expect("reopen");
        assert!(!tmp.exists(), "stale checkpoint tmp must be cleaned up");
        assert_eq!(wal.recover().unwrap().committed(), 1);
    }

    #[test]
    fn enospc_pauses_durability_and_a_fold_resumes_it() {
        // A tight disk: two framed commit lines fit, the third does not.
        let line_len = frame(&serde_json::to_string(&commit(0)).unwrap()).len() + 1;
        let disk = SimDisk::new(SimDiskConfig {
            capacity_bytes: Some(2 * line_len + line_len / 2),
            ..SimDiskConfig::default()
        });
        let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("open");
        wal.append(&commit(0));
        wal.append(&commit(1));
        assert!(!wal.is_paused());
        wal.append(&commit(2)); // ENOSPC: enters the paused span
        assert!(wal.is_paused());
        assert!(wal.needs_space_fold());
        assert_eq!(wal.enospc_events(), 1);
        assert_eq!(wal.durability_paused_spans(), 1);
        assert_eq!(wal.paused_appends(), 1);
        wal.append(&commit(3)); // withheld, not an ENOSPC storm
        assert_eq!(wal.enospc_events(), 1);
        assert_eq!(wal.paused_appends(), 2);
        assert!(wal.is_durable(), "the sink is kept through the pause");
        // The engine's answer: fold the journal into a (smaller)
        // checkpoint and rewrite. That lands every withheld record.
        wal.install_checkpoint(vec![shed_record(0)], None, TenantId::default());
        assert!(!wal.is_paused(), "a successful fold resumes durability");
        wal.append(&commit(1));
        let mut media = disk.clone();
        let on_disk = media.contents().expect("media");
        assert_eq!(String::from_utf8_lossy(&on_disk), wal.serialized());
        assert_eq!(wal.durability_paused_spans(), 1, "one span, now closed");
    }

    #[test]
    fn split_and_merge_are_inverse_on_an_interleaved_journal() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut parts: BTreeMap<TenantId, WriteAheadLog> = BTreeMap::new();
        let mut wal_a = WriteAheadLog::new();
        wal_a.append(&tenant_commit(a, 0, 100));
        wal_a.append(&WalRecord::Epoch {
            shard: 0,
            epoch: 1,
            committed: 1,
            tenant: a,
        });
        wal_a.append(&tenant_commit(a, 1, 400));
        let mut wal_b = WriteAheadLog::new();
        wal_b.append(&tenant_commit(b, 0, 200));
        wal_b.append(&tenant_commit(b, 1, 300));
        parts.insert(a, wal_a);
        parts.insert(b, wal_b);

        let merged = WriteAheadLog::merge_tenants(&parts).expect("clean parts");
        // Anchored interleave: a@100, a's epoch (anchor 100), b@200,
        // b@300, a@400.
        let order: Vec<(TenantId, bool)> = merged
            .records()
            .unwrap()
            .iter()
            .map(|r| (r.tenant(), matches!(r, WalRecord::Commit { .. })))
            .collect();
        assert_eq!(
            order,
            vec![(a, true), (a, false), (b, true), (b, true), (a, true)]
        );
        // Round trip: splitting the merge recovers each part's lines.
        let split = merged.split_tenants().expect("clean journal");
        assert_eq!(split.len(), 2);
        for (tenant, part) in &parts {
            assert_eq!(split[tenant].serialized(), part.serialized());
        }
        // Per-tenant recovery sees two gapless commits each.
        let recovered = merged.recover_tenants().expect("gapless per tenant");
        assert_eq!(recovered[&a].committed(), 2);
        assert_eq!(recovered[&b].committed(), 2);
        assert_eq!(recovered[&a].shard_epochs.get(&0), Some(&1));
        // The global recover() is the single-tenant path: tenant-local
        // seqs restart at 0, so it must refuse the interleave.
        assert!(matches!(merged.recover(), Err(WalError::Gap { .. })));
    }

    #[test]
    fn torn_tail_rolls_back_only_the_owning_tenant() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut wal = WriteAheadLog::new();
        wal.append(&tenant_commit(a, 0, 100));
        wal.append(&tenant_commit(b, 0, 200));
        wal.append(&tenant_commit(b, 1, 300));
        wal.append(&tenant_commit(a, 1, 400)); // the line the crash tears
        let mut torn = wal.serialized();
        torn.truncate(torn.len() - 10);
        let loaded = WriteAheadLog::load(&torn);
        let recovered = loaded.recover_tenants().expect("gapless per tenant");
        assert_eq!(recovered[&a].committed(), 1, "owner loses the torn commit");
        assert_eq!(recovered[&b].committed(), 2, "neighbor watermark intact");
    }

    #[test]
    fn mid_log_corruption_rolls_back_only_the_owning_tenant() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut wal = WriteAheadLog::new();
        wal.append(&tenant_commit(a, 0, 100));
        wal.append(&tenant_commit(b, 0, 200));
        wal.append(&tenant_commit(a, 1, 300));
        wal.append(&tenant_commit(b, 1, 400));
        wal.append(&tenant_commit(a, 2, 500));
        // Bit rot strikes tenant A's *first* commit, mid-log.
        let serialized = wal.serialized();
        let mut bytes = serialized.into_bytes();
        bytes[20] ^= 0x01;
        let loaded = WriteAheadLog::load_bytes(&bytes);
        assert_eq!(loaded.quarantined().len(), 1);
        assert_eq!(
            loaded.dropped_records(),
            2,
            "a@1 and a@2 are stranded past the break"
        );
        let recovered = loaded.recover_tenants().expect("per-tenant prefixes");
        // The break hit a@0, so *every* record of tenant A was pruned:
        // the owner rolls back to an empty stream (no entry at all, or
        // an empty recovery — both mean watermark 0).
        assert_eq!(recovered.get(&a).map_or(0, Recovery::committed), 0);
        assert_eq!(recovered[&b].committed(), 2, "neighbor watermark intact");
    }

    #[test]
    fn checkpoint_rewrite_failure_detaches_sink_and_counts() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/wal-tests/sink-fail");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("fail.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = WriteAheadLog::open_durable(&path).expect("create");
        wal.append(&commit(0));
        assert_eq!(wal.sink_failures(), 0);
        // Yank the directory out from under the sink: the checkpoint's
        // temp-file create must fail.
        std::fs::remove_file(&path).expect("remove journal");
        std::fs::remove_dir(&dir).expect("remove dir");
        wal.install_checkpoint(vec![shed_record(0)], None, TenantId::default());
        assert_eq!(wal.sink_failures(), 1);
        assert_eq!(wal.sink_retries(), 1, "one transient retry before detach");
        assert!(!wal.is_durable(), "failed sink is detached");
        // The in-memory journal stays consistent and writable.
        wal.append(&commit(1));
        assert_eq!(wal.recover().unwrap().committed(), 2);
        assert_eq!(wal.sink_failures(), 1, "detached sink fails only once");
    }

    #[test]
    fn adopt_replaces_contents_and_keeps_the_sink() {
        let path = scratch_path("adopt.wal");
        let mut durable = WriteAheadLog::open_durable(&path).expect("create");
        durable.append(&commit(0));
        let mut replacement = WriteAheadLog::new();
        replacement.append(&tenant_commit(TenantId(3), 0, 50));
        replacement.append(&tenant_commit(TenantId(3), 1, 90));
        durable.adopt(replacement.clone());
        assert!(durable.is_durable(), "adopt keeps the durable backend");
        assert_eq!(durable.serialized(), replacement.serialized());
        let on_disk = std::fs::read_to_string(&path).expect("journal file");
        assert_eq!(on_disk, replacement.serialized(), "adopt rewrote the file");
        let reopened = WriteAheadLog::open_durable(&path).expect("reopen");
        let recovered = reopened.recover_tenants().expect("gapless");
        assert_eq!(recovered[&TenantId(3)].committed(), 2);
    }

    #[test]
    fn commit_gaps_are_detected() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&commit(2));
        let err = wal.recover().unwrap_err();
        assert_eq!(
            err,
            WalError::Gap {
                expected: 1,
                found: 2
            }
        );
        assert!(err.to_string().contains("gap"));
    }

    #[test]
    fn load_bytes_survives_invalid_utf8() {
        let mut wal = WriteAheadLog::new();
        wal.append(&commit(0));
        wal.append(&commit(1));
        let mut bytes = wal.serialized().into_bytes();
        bytes[15] = 0xFF; // not valid UTF-8 anywhere
        let loaded = WriteAheadLog::load_bytes(&bytes);
        assert_eq!(loaded.quarantined().len(), 1);
        assert_eq!(loaded.recover().unwrap().committed(), 0);
    }

    /// One Commit, one Epoch, one Feedback and one Checkpoint record
    /// whose text needs every kind of JSON escape next to plain
    /// multi-byte text. The checkpoint's index names a warm base.
    fn golden_journal() -> WriteAheadLog {
        use rcacopilot_core::pipeline::RcaPrediction;
        use rcacopilot_core::retrieval::{HistoricalEntry, WarmBase};
        let text = "q\" b\\ n\n t\t r\r c\u{1} é 日本";
        let entry = CheckpointEntry {
            entry: HistoricalEntry {
                id: 7,
                category: "HubPortExhaustion".to_string(),
                summary: format!("summary {text}"),
                at: SimTime::from_secs(3_600),
                embedding: vec![0.5, -1.25, 3.0e-7],
            },
            visible_from: SimTime::from_secs(4_000),
        };
        let record = EventRecord {
            seq: 0,
            incident_idx: 3,
            at: SimTime::from_secs(3_600),
            severity: Severity::Sev2,
            alert_type: AlertType::default(),
            tenant: TenantId::default(),
            outcome: EventOutcome::Predicted {
                prediction: RcaPrediction {
                    label: "HubPortExhaustion".to_string(),
                    unseen: false,
                    confidence: 0.8125,
                    explanation: format!("explanation {text}"),
                    demo_categories: vec!["HubPortExhaustion".to_string(), "FullDisk".to_string()],
                    completeness: 1.0,
                },
                degraded: false,
            },
        };
        let mut wal = WriteAheadLog::new();
        wal.append(&WalRecord::Commit {
            seq: 0,
            record: record.clone(),
            entry: Some(entry.clone()),
        });
        wal.append(&WalRecord::Epoch {
            shard: 1,
            epoch: 2,
            committed: 1,
            tenant: TenantId::default(),
        });
        wal.append(&WalRecord::Feedback {
            entry: entry.clone(),
            tenant: TenantId(3),
        });
        wal.append(&WalRecord::Checkpoint {
            committed: 1,
            records: vec![record],
            index: Some(ShardedCheckpoint {
                max_cell: 64,
                shard_epochs: vec![1, 2],
                base: WarmBase::of(std::slice::from_ref(&entry.entry)),
                entries: vec![entry],
            }),
            tenant: TenantId::default(),
        });
        wal
    }

    /// The journal's bytes, pinned to what the JSON writer and the
    /// CRC-32C framing produced before either was rewritten for speed.
    /// The Checkpoint line was pinned while an index's warm base was
    /// still optional; the JSON shim writes `Some(base)` as `base`.
    #[test]
    fn journal_bytes_are_pinned() {
        let golden = concat!(
            r#"crc32c:c33458bd:{"Commit":{"seq":0,"record":{"seq":0,"incident_idx":3,"at":3600,"severity":"Sev2","alert_type":"DeliveryQueueBacklog","tenant":0,"outcome":{"Predicted":{"prediction":{"label":"HubPortExhaustion","unseen":false,"confidence":0.8125,"explanation":"explanation q\" b\\ n\n t\t r\r c\u0001 é 日本","demo_categories":["HubPortExhaustion","FullDisk"],"completeness":1.0},"degraded":false}}},"entry":{"entry":{"id":7,"category":"HubPortExhaustion","summary":"summary q\" b\\ n\n t\t r\r c\u0001 é 日本","at":3600,"embedding":[0.5,-1.25,0.0000003000000106112566]},"visible_from":4000}}}"#,
            "\n",
            r#"crc32c:c9c45e23:{"Epoch":{"shard":1,"epoch":2,"committed":1,"tenant":0}}"#,
            "\n",
            r#"crc32c:2e0500ef:{"Feedback":{"entry":{"entry":{"id":7,"category":"HubPortExhaustion","summary":"summary q\" b\\ n\n t\t r\r c\u0001 é 日本","at":3600,"embedding":[0.5,-1.25,0.0000003000000106112566]},"visible_from":4000},"tenant":3}}"#,
            "\n",
            r#"crc32c:63e02aa8:{"Checkpoint":{"committed":1,"records":[{"seq":0,"incident_idx":3,"at":3600,"severity":"Sev2","alert_type":"DeliveryQueueBacklog","tenant":0,"outcome":{"Predicted":{"prediction":{"label":"HubPortExhaustion","unseen":false,"confidence":0.8125,"explanation":"explanation q\" b\\ n\n t\t r\r c\u0001 é 日本","demo_categories":["HubPortExhaustion","FullDisk"],"completeness":1.0},"degraded":false}}}],"index":{"max_cell":64,"shard_epochs":[1,2],"entries":[{"entry":{"id":7,"category":"HubPortExhaustion","summary":"summary q\" b\\ n\n t\t r\r c\u0001 é 日本","at":3600,"embedding":[0.5,-1.25,0.0000003000000106112566]},"visible_from":4000}],"base":{"len":1,"digest":803578032974875176}},"tenant":0}}"#,
            "\n",
        );
        assert_eq!(golden_journal().serialized(), golden);
        let loaded = WriteAheadLog::load(golden);
        assert!(loaded.quarantined().is_empty());
        assert_eq!(
            loaded.records().unwrap(),
            golden_journal().records().unwrap()
        );
    }
}
