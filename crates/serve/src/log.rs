//! The durable decision log: typed records over the `crowd-ckpt` WAL framing.
//!
//! Every committed serving round appends **one record batch** (group commit): first the
//! round's feedback records in ingress order (feedbacks are observed before the round's
//! decisions — see `crowd_serve::server`), then its decision records in commit order.
//! The byte format
//! is specified in `docs/DECISION_LOG_FORMAT.md` at the repository root; the segment
//! framing (magic, version, CRC-32 per batch, atomic rotation, torn-tail detection)
//! lives in [`crowd_ckpt::wal`], and this module owns what goes *inside* a batch.
//!
//! A record stores everything deterministic re-execution needs and nothing more: the
//! full [`ArrivalContext`] a decision was made on (so replay can call the policy again
//! and check it reproduces the logged ranking) and the full [`PolicyFeedback`] of every
//! ingested online-learning tick. The policy's parameters are **never** logged — they
//! are a pure function of the initial state plus the logged event order, which is
//! exactly what makes a crashed server's replay bit-identical to the uninterrupted run.
//!
//! # Self-healing and compaction
//!
//! All I/O goes through the [`Fs`] storage handle in [`LogConfig::fs`], so the
//! fault-injection suites can poison any numbered operation. Three mechanisms keep the
//! log healthy when the storage underneath it misbehaves:
//!
//! * **Bounded append retries** — [`DecisionLog::append_retrying`] heals the segment
//!   tail (truncating any partial frame a failed append left behind) and retries up to
//!   two times before surfacing the error.
//! * **Degraded markers** — [`LogRecord::Degraded`] records that the server shed load
//!   during a log outage, so replay stays aligned with what actually executed.
//! * **Compaction** — [`DecisionLog::compact`] freezes the replayed prefix into a
//!   *base image* (a `crowd-ckpt` snapshot named `base-<suffix_start:08>.ckpt`) and
//!   deletes the absorbed segments; recovery prefers the newest valid base plus the
//!   segment suffix and falls back to full replay when no base exists.
//!
//! The directory rules — which files are segments, bases or leftovers, which base wins,
//! where the live suffix starts and what a compaction absorbed — live in one private
//! `LogLayout` scan that [`DecisionLog::create`], [`DecisionLog::recover`],
//! [`DecisionLog::read_tail`] and [`DecisionLog::compact`] all start from, so recovery
//! and the read-only readers can never disagree about what a directory holds.
//!
//! Record tags are **additive**: a build reads tags it knows and fails typed on tags it
//! does not, without a segment-version bump (the WAL framing stays at
//! [`crowd_ckpt::wal::WAL_VERSION`] 1).

use crate::error::{Result, ServeError};
use crowd_ckpt::wal::{self, SegmentWriter};
use crowd_ckpt::{
    CkptError, DecodeState, Fs, SaveState, Snapshot, SnapshotFile, StateReader, StateWriter,
};
use crowd_sim::{ArrivalContext, PolicyFeedback, TaskId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record tag: a committed decision (request id, arrival context, ranking).
const TAG_DECISION: u8 = 1;
/// Record tag: an ingested feedback (request id, feedback payload).
const TAG_FEEDBACK: u8 = 2;
/// Record tag: a degraded-mode marker (work shed during a log outage).
const TAG_DEGRADED: u8 = 3;

/// Base-image section: suffix start + next request id.
const BASE_META_SECTION: &str = "base.meta";
/// Base-image section: the pending (unanswered-feedback) requests at the cut.
const BASE_PENDING_SECTION: &str = "base.pending";
/// Base-image section: the policy's checkpoint bytes at the cut.
const BASE_POLICY_SECTION: &str = "base.policy";

/// Bounded self-healing: how many times [`DecisionLog::append_retrying`] heals the tail
/// and retries a failed append before surfacing the error.
const APPEND_RETRIES: u32 = 2;

/// One committed serving event, in the log's total commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// The server decided on an arrival: `shown`/`assignment` is the ranking the policy
    /// produced for `context` and acknowledged to the client as request `request_id`.
    Decision {
        /// Server-assigned id, strictly increasing in commit order.
        request_id: u64,
        /// The arrival the decision was computed on, shared with the server's pending
        /// entry for `request_id` (one allocation per served arrival).
        context: Arc<ArrivalContext>,
        /// The ranked task list returned to the client.
        shown: Vec<TaskId>,
        /// True when the decision was a single assignment rather than a ranking.
        assignment: bool,
    },
    /// The server ingested feedback for an earlier decision and ticked the policy's
    /// online learning (`Policy::observe`).
    Feedback {
        /// The decision this feedback refers to.
        request_id: u64,
        /// The feedback payload handed to `observe`.
        feedback: PolicyFeedback,
    },
    /// The server was degraded (its log was failing after bounded retries) and shed
    /// this much work instead of wedging. Appended when the outage heals, *before* the
    /// first post-outage round, so the log's record order stays exactly the execution
    /// order. Shed requests never touched the policy — replay treats this record as a
    /// counted no-op.
    Degraded {
        /// Decide requests rejected with [`ServeError::Degraded`] during the outage.
        shed_decides: u64,
        /// Feedback submissions dropped during the outage.
        shed_feedbacks: u64,
    },
}

impl SaveState for LogRecord {
    fn save_state(&self, w: &mut StateWriter) {
        match self {
            LogRecord::Decision {
                request_id,
                context,
                shown,
                assignment,
            } => {
                w.put_u8(TAG_DECISION);
                w.put_u64(*request_id);
                context.save_state(w);
                shown.save_state(w);
                w.put_bool(*assignment);
            }
            LogRecord::Feedback {
                request_id,
                feedback,
            } => {
                w.put_u8(TAG_FEEDBACK);
                w.put_u64(*request_id);
                feedback.save_state(w);
            }
            LogRecord::Degraded {
                shed_decides,
                shed_feedbacks,
            } => {
                w.put_u8(TAG_DEGRADED);
                w.put_u64(*shed_decides);
                w.put_u64(*shed_feedbacks);
            }
        }
    }
}

impl DecodeState for LogRecord {
    fn decode_state(r: &mut StateReader<'_>) -> crowd_ckpt::Result<Self> {
        match r.take_u8()? {
            TAG_DECISION => Ok(LogRecord::Decision {
                request_id: r.take_u64()?,
                context: Arc::new(ArrivalContext::decode_state(r)?),
                shown: Vec::<TaskId>::decode_state(r)?,
                assignment: r.take_bool()?,
            }),
            TAG_FEEDBACK => Ok(LogRecord::Feedback {
                request_id: r.take_u64()?,
                feedback: PolicyFeedback::decode_state(r)?,
            }),
            TAG_DEGRADED => Ok(LogRecord::Degraded {
                shed_decides: r.take_u64()?,
                shed_feedbacks: r.take_u64()?,
            }),
            tag => Err(CkptError::Corrupt {
                what: "decision log record",
                detail: format!("unknown record tag {tag}"),
            }),
        }
    }
}

impl LogRecord {
    /// The request id this record refers to; `None` for markers
    /// ([`LogRecord::Degraded`]) that are not tied to a single request.
    pub fn request_id(&self) -> Option<u64> {
        match self {
            LogRecord::Decision { request_id, .. } | LogRecord::Feedback { request_id, .. } => {
                Some(*request_id)
            }
            LogRecord::Degraded { .. } => None,
        }
    }
}

/// Encodes one committed round as a record-batch payload (`record count` then the
/// records back to back).
pub fn encode_batch(records: &[LogRecord]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_usize(records.len());
    for record in records {
        record.save_state(&mut w);
    }
    w.into_bytes()
}

/// Decodes one record-batch payload, enforcing exact consumption.
pub fn decode_batch(payload: &[u8]) -> crowd_ckpt::Result<Vec<LogRecord>> {
    let mut r = StateReader::new(payload);
    let count = r.take_len("decision log records", 1)?;
    let records = (0..count)
        .map(|_| LogRecord::decode_state(&mut r))
        .collect::<crowd_ckpt::Result<Vec<_>>>()?;
    r.finish("decision log record batch")?;
    Ok(records)
}

/// File name of the base image whose suffix starts at the given segment index
/// (`base-00000004.ckpt`).
pub fn base_file_name(suffix_start: u64) -> String {
    format!("base-{suffix_start:08}.ckpt")
}

/// Parses a base-image file name back to its suffix start; `None` for foreign files.
pub fn parse_base_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("base-")?.strip_suffix(".ckpt")?;
    if digits.len() < 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A compaction base image: everything replay needs *instead of* the deleted log
/// prefix. Stored as a `crowd-ckpt` snapshot (magic, versioned sections, per-section
/// CRC-32) so corruption is always a typed error, never a silent misparse.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseImage {
    /// First segment index of the live suffix; every record below it is absorbed.
    pub suffix_start: u64,
    /// The server's next request id at the cut.
    pub next_request_id: u64,
    /// Decisions acknowledged but not yet matched by feedback at the cut, in id order.
    /// Each context is the one its decision record and pending entry share.
    pub pending: Vec<(u64, Arc<ArrivalContext>)>,
    /// The policy's checkpoint bytes at the cut, restored via
    /// `Policy::restore_state` before the suffix is replayed.
    pub policy: Vec<u8>,
}

impl BaseImage {
    fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let mut meta = StateWriter::new();
        meta.put_u64(self.suffix_start);
        meta.put_u64(self.next_request_id);
        snap.put_raw(BASE_META_SECTION, meta.into_bytes());
        let mut pending = StateWriter::new();
        pending.put_usize(self.pending.len());
        for (id, context) in &self.pending {
            pending.put_u64(*id);
            context.save_state(&mut pending);
        }
        snap.put_raw(BASE_PENDING_SECTION, pending.into_bytes());
        snap.put_raw(BASE_POLICY_SECTION, self.policy.clone());
        snap
    }

    fn from_file(file: &SnapshotFile) -> crowd_ckpt::Result<BaseImage> {
        let mut meta = file.reader(BASE_META_SECTION)?;
        let suffix_start = meta.take_u64()?;
        let next_request_id = meta.take_u64()?;
        meta.finish(BASE_META_SECTION)?;
        let mut r = file.reader(BASE_PENDING_SECTION)?;
        let count = r.take_len("pending requests", 8)?;
        let mut pending = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.take_u64()?;
            pending.push((id, Arc::new(ArrivalContext::decode_state(&mut r)?)));
        }
        r.finish(BASE_PENDING_SECTION)?;
        let mut policy_reader = file.reader(BASE_POLICY_SECTION)?;
        let policy = policy_reader
            .take_bytes(policy_reader.remaining())?
            .to_vec();
        Ok(BaseImage {
            suffix_start,
            next_request_id,
            pending,
            policy,
        })
    }
}

/// Where and how durably the decision log is written.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotation threshold: a new segment is opened before the first append that finds
    /// the current one at or past this many bytes. A segment therefore always holds at
    /// least one batch, whatever the threshold.
    pub segment_bytes: u64,
    /// `fdatasync` after every appended batch (the default). The server acknowledges a
    /// round's clients only after the append returns, so with this on an acknowledged
    /// decision is durable — the contract recovery relies on. Turning it off trades
    /// that guarantee for throughput (the OS flushes on its own schedule). It also sets
    /// how [`DecisionLog::recover`] reads damage in the final segment with a valid batch
    /// behind it: on, that is corruption and recovery refuses; off, a power loss may
    /// have persisted pages out of order, so recovery truncates at the damage like any
    /// torn tail, dropping the batches behind it.
    pub sync_every_batch: bool,
    /// Storage backend every log operation goes through. [`Fs::real`] in production;
    /// the fault-injection suites swap in [`Fs::faulty`] to poison any numbered I/O
    /// site deterministically.
    pub fs: Fs,
}

impl LogConfig {
    /// A log in `dir` with an 8 MiB rotation threshold, per-batch sync and the real
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogConfig {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            sync_every_batch: true,
            fs: Fs::real(),
        }
    }
}

/// What `DecisionLog::recover` found and repaired on disk.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LogRecovery {
    /// Live suffix segments present (after ignoring `.tmp` leftovers and deleting
    /// absorbed ones).
    pub segments: usize,
    /// Complete, CRC-verified record batches replayed from the suffix.
    pub batches: usize,
    /// Bytes of torn tail truncated off the final segment (0 for a clean log). A torn
    /// tail was never acknowledged to any client, so dropping it loses nothing.
    pub truncated_bytes: u64,
    /// Leftover `.tmp` files from an interrupted rotation or base write, deleted.
    pub removed_tmp: usize,
    /// Suffix start of the base image recovery restored from; `None` means full replay
    /// from segment 0.
    pub base: Option<u64>,
    /// Absorbed segments and superseded bases deleted while finishing an interrupted
    /// compaction.
    pub removed_absorbed: usize,
    /// Published base images that failed validation and were skipped (recovery fell
    /// back to an older base or to full replay).
    pub invalid_bases: usize,
}

/// What a log scan hands its sink, in commit order: the chosen base image first (only
/// for a compacted log), then each committed record batch of the live suffix. With no
/// base the suffix is the whole history.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// The base image standing in for the deleted prefix.
    Base(BaseImage),
    /// One committed round's records, as one append wrote them.
    Batch(Vec<LogRecord>),
}

/// Everything [`DecisionLog::recover`] hands back once its sink has seen the whole
/// live log: the reopened log and the repair report.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The log, reopened for appending after the last committed batch.
    pub log: DecisionLog,
    /// What was found and repaired.
    pub recovery: LogRecovery,
}

/// What one [`DecisionLog::compact`] call absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// First segment index of the live suffix after the cut.
    pub suffix_start: u64,
    /// Sealed segments deleted because the base image now stands in for them.
    pub absorbed_segments: usize,
    /// Encoded size of the base image.
    pub base_bytes: u64,
}

/// The append side of the durable decision log.
#[derive(Debug)]
pub struct DecisionLog {
    config: LogConfig,
    writer: SegmentWriter,
    batches: u64,
    rotations: u64,
    first_index: u64,
    /// A failed append may have left a partial frame past the accounted clean length;
    /// the next append heals it before writing.
    dirty: bool,
}

impl DecisionLog {
    /// Creates a fresh log: the directory is created if needed, stale `.tmp` files are
    /// removed, and segment 0 is opened. Fails with [`ServeError::LogNotEmpty`] when
    /// segments or base images already exist — appending a fresh history over an old
    /// one would fork the log; use [`DecisionLog::recover`] to continue it instead.
    pub fn create(config: LogConfig) -> Result<DecisionLog> {
        let fs = config.fs.clone();
        fs.create_dir_all(&config.dir)?;
        let layout = LogLayout::scan(&fs, &config.dir)?;
        if !layout.segments.is_empty() || !layout.bases.is_empty() {
            return Err(ServeError::LogNotEmpty {
                dir: config.dir.clone(),
            });
        }
        for tmp in &layout.tmp {
            let _ = fs.remove_file(tmp);
        }
        let writer = SegmentWriter::create(&fs, &config.dir, 0)?;
        Ok(DecisionLog {
            config,
            writer,
            batches: 0,
            rotations: 0,
            first_index: 0,
            dirty: false,
        })
    }

    /// Opens an existing log for appending. The preferred base image and then every
    /// committed suffix batch go to `sink` ([`RecoveryEvent`]) as each segment is read.
    /// Each segment streams through one fixed read buffer ([`wal::read_segment`]), so
    /// recovery holds that buffer and one batch frame at a time, however large the
    /// segments and however long the log. What was repaired comes back with the
    /// reopened log.
    ///
    /// Nothing on disk is truncated or deleted until every suffix segment has been read,
    /// validated and handed to the sink. An error — a refusal below, or one the sink
    /// returns (say a replay divergence) — therefore leaves every file as it was, but
    /// the sink may already have seen a base and some batches.
    ///
    /// Repairs: `.tmp` leftovers (segment rotations *and* base-image writes) are
    /// deleted; a torn tail on the **final** segment is truncated away (it was never
    /// acknowledged) while a torn tail on any *sealed* segment is an error — those
    /// bytes were synced before the next segment opened, so damage there is real
    /// corruption that replay must not paper over; so is, with
    /// [`LogConfig::sync_every_batch`] on, a damaged batch with a valid batch after it
    /// in any segment (see [`wal::SegmentScan::valid_frame_after`]), which fails
    /// recovery before any segment is truncated and names the byte the damage starts
    /// at; an interrupted compaction is finished (absorbed segments and superseded
    /// bases deleted).
    ///
    /// Base preference: the newest base image that validates (magic, version, section
    /// CRCs, exact decode) *and* whose suffix segments are present wins; an invalid
    /// base is counted and skipped in favour of an older base or full replay — but a
    /// log whose segment history is incomplete (first segment past 0) with no valid
    /// base covering the gap is an error, never a silent partial replay. An empty or
    /// absent directory recovers to a fresh log.
    pub fn recover(
        config: LogConfig,
        mut sink: impl FnMut(RecoveryEvent) -> Result<()>,
    ) -> Result<RecoveredLog> {
        let fs = config.fs.clone();
        fs.create_dir_all(&config.dir)?;
        let layout = LogLayout::scan(&fs, &config.dir)?;
        for tmp in &layout.tmp {
            fs.remove_file(tmp)?;
        }
        let live = layout.live(&fs, config.sync_every_batch, &mut sink)?;
        let mut recovery = live.recovery;
        recovery.removed_tmp = layout.tmp.len();
        let suffix_start = recovery.base.unwrap_or(0);
        let (segments, bases) = layout.remove_absorbed(&fs, suffix_start)?;
        recovery.removed_absorbed = segments + bases;
        let writer = match live.tail {
            Some((index, path, clean_len)) => SegmentWriter::resume(&fs, &path, index, clean_len)?,
            // A chosen base implies a covered (non-empty) suffix, so this is a fresh dir.
            None => SegmentWriter::create(&fs, &config.dir, 0)?,
        };
        let log = DecisionLog {
            config,
            batches: recovery.batches as u64,
            rotations: writer.index(),
            writer,
            first_index: suffix_start,
            dirty: false,
        };
        Ok(RecoveredLog { log, recovery })
    }

    /// Read-only scan of an **uncompacted** log directory on the real filesystem
    /// (tests, offline tooling): the full committed history in commit order, with the
    /// same directory rules and torn-tail policy as [`DecisionLog::recover`] but
    /// touching nothing on disk. A compacted log's prefix exists only as a base image,
    /// so this fails typed there — use [`DecisionLog::read_tail`] instead.
    pub fn read(dir: &Path) -> Result<Vec<LogRecord>> {
        match DecisionLog::read_tail(&Fs::real(), dir)? {
            (None, records) => Ok(records),
            (Some(base), _) => Err(ServeError::Log {
                detail: format!(
                    "log was compacted at segment {}: the prefix exists only as a base image",
                    base.suffix_start
                ),
            }),
        }
    }

    /// Read-only scan of a possibly compacted log through `fs`: the base image
    /// [`DecisionLog::recover`] would restore from (if any) plus the suffix records,
    /// touching nothing on disk. Refuses exactly what `recover` refuses with
    /// [`LogConfig::sync_every_batch`] on, the default.
    pub fn read_tail(fs: &Fs, dir: &Path) -> Result<(Option<BaseImage>, Vec<LogRecord>)> {
        let (mut base, mut records) = (None, Vec::new());
        LogLayout::scan(fs, dir)?.live(fs, true, &mut |event| {
            match event {
                RecoveryEvent::Base(image) => base = Some(image),
                RecoveryEvent::Batch(batch) => records.extend(batch),
            }
            Ok(())
        })?;
        Ok((base, records))
    }

    /// Appends one committed round as a single record batch, rotating to a new segment
    /// first when the current one is past the threshold. With
    /// [`LogConfig::sync_every_batch`] the batch is durable when this returns. A batch
    /// is counted **only** when it is fully written *and* synced — a failed durability
    /// barrier rolls the accounting back so a retry lands the batch exactly once.
    pub fn append(&mut self, records: &[LogRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        if self.dirty {
            self.heal_tail()?;
        }
        if self.writer.len() >= self.config.segment_bytes && !self.writer.is_empty() {
            self.rotate()?;
        }
        let before = self.writer.len();
        if let Err(e) = self.writer.append(&encode_batch(records)) {
            // A short write may have left a partial frame past `before`.
            self.dirty = true;
            return Err(e.into());
        }
        if self.config.sync_every_batch {
            if let Err(e) = self.writer.sync() {
                // The frame reached the OS but its durability is unknown: roll the
                // accounting back and let the heal physically remove it, so the retry
                // appends the batch exactly once.
                self.writer.rewind_to(before);
                self.dirty = true;
                return Err(e.into());
            }
        }
        self.batches += 1;
        Ok(())
    }

    /// [`DecisionLog::append`] with bounded self-healing: after a failure the segment
    /// tail is truncated back to the last clean frame and the append retried, up to
    /// two times. The final error (if any) is the last attempt's.
    pub fn append_retrying(&mut self, records: &[LogRecord]) -> Result<()> {
        let mut last = match self.append(records) {
            Ok(()) => return Ok(()),
            Err(e) => e,
        };
        for _ in 0..APPEND_RETRIES {
            match self.append(records) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Truncates any partial frame a failed append left past the accounted clean
    /// length. [`DecisionLog::append`] calls this automatically before writing onto a
    /// dirty tail; it is public for callers that want to heal eagerly.
    pub fn heal_tail(&mut self) -> Result<()> {
        self.writer.truncate_to_len()?;
        self.dirty = false;
        Ok(())
    }

    /// Seals the current segment and opens the next one. Self-healing: when a previous
    /// rotation attempt already published the next segment but failed afterwards (e.g.
    /// on the directory sync), the empty segment is adopted instead of refused.
    fn rotate(&mut self) -> Result<()> {
        // Seal the full segment (make its tail durable), then rotate atomically.
        self.writer.sync()?;
        let next = self.writer.index() + 1;
        let path = self.config.dir.join(wal::segment_file_name(next));
        let fs = &self.config.fs;
        self.writer = if fs.exists(&path) {
            let scan = wal::read_segment(fs, &path)?;
            if scan.index != next || scan.batches > 0 {
                return Err(ServeError::Log {
                    detail: format!(
                        "cannot adopt {} during rotation: header index {} with {} batches",
                        path.display(),
                        scan.index,
                        scan.batches
                    ),
                });
            }
            SegmentWriter::resume(fs, &path, next, scan.clean_len)?
        } else {
            SegmentWriter::create(fs, &self.config.dir, next)?
        };
        self.rotations += 1;
        Ok(())
    }

    /// Compacts the log: everything committed so far is frozen into a base image and
    /// the absorbed segments are deleted, leaving the base plus a fresh suffix.
    ///
    /// The caller supplies the replay state at the cut — the next request id, the
    /// pending (unanswered-feedback) requests and the policy's checkpoint bytes. The
    /// current segment is sealed and rotated first so the suffix starts at a segment
    /// boundary, then the base is written atomically (tmp + rename + dir sync), and
    /// only then are absorbed segments deleted lowest-first — a crash anywhere in
    /// between leaves either the old history or a recoverable base-plus-garbage layout
    /// that [`DecisionLog::recover`] finishes cleaning.
    pub fn compact(
        &mut self,
        next_request_id: u64,
        pending: Vec<(u64, Arc<ArrivalContext>)>,
        policy: Vec<u8>,
    ) -> Result<CompactionStats> {
        if self.dirty {
            self.heal_tail()?;
        }
        if self.writer.is_empty() {
            self.writer.sync()?;
        } else {
            self.rotate()?;
        }
        let suffix_start = self.writer.index();
        let image = BaseImage {
            suffix_start,
            next_request_id,
            pending,
            policy,
        };
        let bytes = image.to_snapshot().to_bytes();
        let fs = &self.config.fs;
        fs.publish(&self.config.dir.join(base_file_name(suffix_start)), &bytes)?;
        let layout = LogLayout::scan(fs, &self.config.dir)?;
        let (absorbed_segments, _) = layout.remove_absorbed(fs, suffix_start)?;
        self.first_index = suffix_start;
        Ok(CompactionStats {
            suffix_start,
            absorbed_segments,
            base_bytes: bytes.len() as u64,
        })
    }

    /// Forces everything appended so far to disk (used at graceful shutdown and by
    /// callers running with `sync_every_batch` off).
    pub fn sync(&mut self) -> Result<()> {
        self.writer.sync()?;
        Ok(())
    }

    /// Record batches appended over this log's whole on-disk history.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Segment rotations performed over this log's whole on-disk history.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Segments currently on disk (suffix only — absorbed segments are gone).
    pub fn live_segments(&self) -> u64 {
        self.writer.index() - self.first_index + 1
    }

    /// Index of the first live segment (0 until the first compaction).
    pub fn first_index(&self) -> u64 {
        self.first_index
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

/// One listing of a log directory — the only place the directory rules live.
#[derive(Debug, Default)]
struct LogLayout {
    /// `(index, path)` of every segment, sorted by index and checked to be consecutive
    /// (a compacted log may start past 0; [`LogLayout::live`] decides whether that is
    /// legal).
    segments: Vec<(u64, PathBuf)>,
    /// `(suffix_start, path)` of every published base image, sorted ascending.
    bases: Vec<(u64, PathBuf)>,
    /// Leftover `.tmp` files of interrupted segment rotations and base writes.
    tmp: Vec<PathBuf>,
}

/// What [`LogLayout::live`] learned besides the events it sank: the counts and where
/// the final segment's clean prefix ends.
struct LiveLog {
    /// `segments`, `batches`, `truncated_bytes`, `base` and `invalid_bases` filled in.
    recovery: LogRecovery,
    /// `(index, path, clean_len)` of the final suffix segment; `None` for no segments.
    tail: Option<(u64, PathBuf, u64)>,
}

impl LogLayout {
    /// Lists `dir` once, sorting entries into segments, base images and `.tmp`
    /// leftovers (foreign files are ignored). A gap in the segment indices is
    /// corruption.
    fn scan(fs: &Fs, dir: &Path) -> Result<LogLayout> {
        let mut layout = LogLayout::default();
        for (name, path) in fs.read_dir(dir)? {
            if let Some(stem) = name.strip_suffix(".tmp") {
                if wal::parse_segment_file_name(stem).is_some()
                    || parse_base_file_name(stem).is_some()
                {
                    layout.tmp.push(path);
                }
            } else if let Some(index) = wal::parse_segment_file_name(&name) {
                layout.segments.push((index, path));
            } else if let Some(start) = parse_base_file_name(&name) {
                layout.bases.push((start, path));
            }
        }
        layout.segments.sort_by_key(|(index, _)| *index);
        layout.bases.sort_by_key(|(start, _)| *start);
        layout.tmp.sort();
        let first = layout.segments.first().map_or(0, |(index, _)| *index);
        for (pos, (index, path)) in layout.segments.iter().enumerate() {
            if *index != first + pos as u64 {
                return Err(ServeError::Log {
                    detail: format!(
                        "segment indices are not consecutive: expected {}, found {} ({})",
                        first + pos as u64,
                        index,
                        path.display()
                    ),
                });
            }
        }
        Ok(layout)
    }

    /// Picks the base image and reads the live suffix, segment by segment, handing the
    /// base and then every batch to `sink` in commit order. A segment's batches reach
    /// the sink only after a first streaming pass has validated the whole segment; a
    /// second pass then decodes them one frame at a time, and the sink sees each batch
    /// before the next segment is read.
    ///
    /// The newest base that validates (magic, version, section CRCs, exact decode, the
    /// suffix start its name promises) *and* whose suffix segments are present wins;
    /// the others are counted invalid. With no valid base the suffix is the whole
    /// history, which must then start at segment 0 — a compacted prefix with no valid
    /// base, or bases with no segments at all, is an error, never a partial history.
    /// Only the final suffix segment may carry a torn tail. With `synced_every_batch`, a
    /// torn point with a valid batch behind it is damage to acknowledged batches and an
    /// error; without it, it is what a power loss that persisted pages out of order
    /// leaves, and counts as a torn tail.
    fn live(
        &self,
        fs: &Fs,
        synced_every_batch: bool,
        sink: &mut dyn FnMut(RecoveryEvent) -> Result<()>,
    ) -> Result<LiveLog> {
        let mut recovery = LogRecovery::default();
        let first = self.segments.first().map(|(index, _)| *index);
        let last = self.segments.last().map(|(index, _)| *index);
        let mut base = None;
        for (start, path) in self.bases.iter().rev() {
            let covered = first.is_some_and(|f| f <= *start) && last.is_some_and(|l| *start <= l);
            let image = SnapshotFile::read(fs, path).and_then(|f| BaseImage::from_file(&f));
            match image {
                Ok(image) if covered && image.suffix_start == *start => {
                    base = Some(image);
                    break;
                }
                _ => recovery.invalid_bases += 1,
            }
        }
        recovery.base = base.as_ref().map(|b| b.suffix_start);
        match (&base, first) {
            (None, Some(first)) if first > 0 => {
                return Err(ServeError::Log {
                    detail: format!(
                        "log starts at segment {first} but no valid base image covers the \
                         compacted prefix ({} invalid bases)",
                        recovery.invalid_bases
                    ),
                });
            }
            (None, None) if !self.bases.is_empty() => {
                return Err(ServeError::Log {
                    detail: format!(
                        "log directory holds {} base image(s), none valid, and no segments",
                        self.bases.len()
                    ),
                });
            }
            _ => {}
        }
        if let Some(image) = base {
            sink(RecoveryEvent::Base(image))?;
        }

        let suffix_start = recovery.base.unwrap_or(0);
        let absorbed = self
            .segments
            .iter()
            .take_while(|(index, _)| *index < suffix_start)
            .count();
        let suffix = &self.segments[absorbed..];
        recovery.segments = suffix.len();
        let mut tail = None;
        for (pos, (index, path)) in suffix.iter().enumerate() {
            let mut segment = wal::read_segment(fs, path)?;
            if segment.index != *index {
                return Err(ServeError::Log {
                    detail: format!(
                        "{} claims segment index {} in its header",
                        path.display(),
                        segment.index
                    ),
                });
            }
            if segment.is_torn() {
                if let Some(valid) = segment.valid_frame_after.filter(|_| synced_every_batch) {
                    return Err(ServeError::Log {
                        detail: format!(
                            "{}: the batch at byte {} is damaged but a valid batch follows \
                             at byte {valid} — not a torn tail; truncating to {} bytes \
                             would drop acknowledged batches",
                            path.display(),
                            segment.clean_len,
                            segment.clean_len
                        ),
                    });
                }
                if pos + 1 != suffix.len() {
                    return Err(ServeError::Log {
                        detail: format!(
                            "sealed segment {} has a torn tail ({} bytes) — corruption, not a crash artifact",
                            path.display(),
                            segment.torn_bytes
                        ),
                    });
                }
                recovery.truncated_bytes = segment.torn_bytes;
            }
            recovery.batches += segment.batches;
            while let Some(payload) = segment.next_batch()? {
                sink(RecoveryEvent::Batch(decode_batch(payload)?))?;
            }
            tail = Some((*index, path.clone(), segment.clean_len));
        }
        Ok(LiveLog { recovery, tail })
    }

    /// Deletes what a compaction at `suffix_start` absorbed: the segments below it,
    /// lowest first so a crash mid-sweep leaves the remaining indices contiguous, then
    /// the bases it supersedes. Returns `(segments, bases)` deleted.
    fn remove_absorbed(&self, fs: &Fs, suffix_start: u64) -> Result<(usize, usize)> {
        let mut removed = (0, 0);
        for (index, path) in &self.segments {
            if *index < suffix_start {
                fs.remove_file(path)?;
                removed.0 += 1;
            }
        }
        for (start, path) in &self.bases {
            if *start < suffix_start {
                fs.remove_file(path)?;
                removed.1 += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_ckpt::{FaultKind, FaultPlan, FaultRule, OpClass};
    use crowd_sim::{TaskSnapshot, WorkerId};

    fn context(tag: u32) -> ArrivalContext {
        ArrivalContext {
            time: 100 + tag as u64,
            worker_id: WorkerId(tag),
            worker_feature: vec![0.5, tag as f32],
            worker_quality: 0.75,
            is_new_worker: tag == 0,
            available: (0..3)
                .map(|i| TaskSnapshot {
                    id: TaskId(10 * tag + i),
                    feature: vec![i as f32, 1.0],
                    quality: 0.25 * i as f32,
                    award: 9.0,
                    category: 1,
                    domain: 2,
                    deadline: 500,
                    completions: i as usize,
                })
                .collect(),
        }
    }

    fn feedback(tag: u32) -> PolicyFeedback {
        PolicyFeedback {
            time: 100 + tag as u64,
            worker_id: WorkerId(tag),
            worker_quality: 0.75,
            shown: vec![TaskId(10 * tag), TaskId(10 * tag + 1)],
            completed: Some((TaskId(10 * tag), 0)),
            quality_gain: 0.125,
            worker_feature_before: vec![0.5, tag as f32],
            worker_feature_after: vec![0.25, tag as f32],
        }
    }

    fn sample_records(n: u32) -> Vec<LogRecord> {
        (0..n)
            .flat_map(|tag| {
                [
                    LogRecord::Decision {
                        request_id: 2 * tag as u64,
                        context: Arc::new(context(tag)),
                        shown: vec![TaskId(10 * tag + 1), TaskId(10 * tag)],
                        assignment: tag % 2 == 0,
                    },
                    LogRecord::Feedback {
                        request_id: 2 * tag as u64,
                        feedback: feedback(tag),
                    },
                ]
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd-declog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Recovers through a sink that collects what it is handed: the base image, which
    /// must come before every batch, and the suffix records in commit order.
    fn recover_collecting(
        config: LogConfig,
    ) -> Result<(RecoveredLog, Option<BaseImage>, Vec<LogRecord>)> {
        let (mut base, mut records) = (None, Vec::new());
        let recovered = DecisionLog::recover(config, |event| {
            match event {
                RecoveryEvent::Base(image) => {
                    assert!(base.is_none() && records.is_empty(), "base after a batch");
                    base = Some(image);
                }
                RecoveryEvent::Batch(batch) => records.extend(batch),
            }
            Ok(())
        })?;
        Ok((recovered, base, records))
    }

    #[test]
    fn record_batch_roundtrips() {
        let mut records = sample_records(3);
        records.push(LogRecord::Degraded {
            shed_decides: 7,
            shed_feedbacks: 2,
        });
        assert_eq!(records.last().unwrap().request_id(), None);
        assert_eq!(records[0].request_id(), Some(0));
        let payload = encode_batch(&records);
        // The on-disk bytes are pinned: how a record holds its context in memory must
        // never change what is written.
        assert_eq!(payload.len(), 928);
        assert_eq!(crowd_ckpt::crc32(&payload), 0x1385_09bb);
        assert_eq!(decode_batch(&payload).unwrap(), records);
        assert!(decode_batch(&payload[..payload.len() - 1]).is_err());
        let mut bad = payload.clone();
        bad[8] = 99; // first record tag
        assert!(matches!(decode_batch(&bad), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn base_file_names_roundtrip() {
        assert_eq!(base_file_name(4), "base-00000004.ckpt");
        assert_eq!(parse_base_file_name("base-00000004.ckpt"), Some(4));
        assert_eq!(
            parse_base_file_name("base-123456789.ckpt"),
            Some(123_456_789)
        );
        assert_eq!(parse_base_file_name("base-0000000x.ckpt"), None);
        assert_eq!(parse_base_file_name("segment-00000004.wlog"), None);
        assert_eq!(parse_base_file_name("base-00000004.ckpt.tmp"), None);
    }

    #[test]
    fn create_append_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut log = DecisionLog::create(LogConfig::new(&dir)).unwrap();
        let records = sample_records(2);
        log.append(&records[..2]).unwrap();
        log.append(&records[2..]).unwrap();
        log.append(&[]).unwrap(); // no-op, not a batch
        assert_eq!(log.batches(), 2);
        assert_eq!(log.live_segments(), 1);
        assert_eq!(DecisionLog::read(&dir).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_an_existing_history() {
        let dir = tmp_dir("not-empty");
        let mut log = DecisionLog::create(LogConfig::new(&dir)).unwrap();
        log.append(&sample_records(1)).unwrap();
        drop(log);
        assert!(matches!(
            DecisionLog::create(LogConfig::new(&dir)),
            Err(ServeError::LogNotEmpty { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_threshold_rotates_per_batch_and_recovers_across_segments() {
        let dir = tmp_dir("rotate");
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1; // every append past the first batch rotates
        let mut log = DecisionLog::create(config.clone()).unwrap();
        let records = sample_records(4);
        for pair in records.chunks(2) {
            log.append(pair).unwrap();
        }
        assert_eq!(log.rotations(), 3);
        drop(log);

        let (recovered, base, recovered_records) = recover_collecting(config).unwrap();
        assert_eq!(recovered_records, records);
        assert!(base.is_none());
        assert_eq!(recovered.recovery.segments, 4);
        assert_eq!(recovered.recovery.batches, 4);
        assert_eq!(recovered.recovery.truncated_bytes, 0);
        assert_eq!(recovered.log.rotations(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_truncates_only_a_final_torn_tail() {
        let dir = tmp_dir("torn");
        let mut log = DecisionLog::create(LogConfig::new(&dir)).unwrap();
        let records = sample_records(2);
        log.append(&records[..2]).unwrap();
        log.append(&records[2..]).unwrap();
        drop(log);
        // Tear the final batch: chop a few payload bytes off the single segment.
        let seg = dir.join(wal::segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let (recovered, _, recovered_records) = recover_collecting(LogConfig::new(&dir)).unwrap();
        assert_eq!(recovered_records, records[..2].to_vec());
        assert!(recovered.recovery.truncated_bytes > 0);
        // The log continues cleanly after the truncation.
        let mut log = recovered.log;
        log.append(&records[2..]).unwrap();
        drop(log);
        assert_eq!(DecisionLog::read(&dir).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupted_read_mid_segment_fails_recovery_and_keeps_the_segment() {
        let dir = tmp_dir("mid-rot");
        let mut log = DecisionLog::create(LogConfig::new(&dir)).unwrap();
        let records = sample_records(4);
        for pair in records.chunks(2) {
            log.append(pair).unwrap();
        }
        drop(log);
        let seg = dir.join(wal::segment_file_name(0));
        let full_len = std::fs::metadata(&seg).unwrap().len();

        // Silent rot on the recovery's read flips a byte in the middle of the single
        // segment, inside an acknowledged batch with valid batches behind it: that is
        // corruption, never a torn tail to truncate away.
        let (fs, probe) = Fs::faulty(FaultPlan::none().with_rule(FaultRule {
            from_op: 0,
            to_op: u64::MAX,
            class: Some(OpClass::Read),
            kind: FaultKind::CorruptRead,
            once: true,
        }));
        let mut config = LogConfig::new(&dir);
        config.fs = fs;
        let err = recover_collecting(config).unwrap_err();
        assert!(
            matches!(&err, ServeError::Log { detail } if detail.contains("not a torn tail")),
            "{err}"
        );
        assert_eq!(probe.fired().len(), 1);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), full_len);
        assert_eq!(DecisionLog::read(&dir).unwrap(), records);

        // Rot in the second batch's length field: whether the flipped length overruns
        // the file or lands on a wrong frame boundary, the valid batches behind it are
        // still found, and the error names the byte to truncate at.
        let full = std::fs::read(&seg).unwrap();
        let header = wal::SEGMENT_HEADER_LEN as usize;
        let frame = wal::BATCH_HEADER_LEN as usize;
        let second = header
            + frame
            + u32::from_le_bytes(full[header..header + 4].try_into().unwrap()) as usize;
        for (at, mask) in [(second + 3, 0x01), (second, 0x01), (second, 0x20)] {
            let mut bytes = full.clone();
            bytes[at] ^= mask;
            std::fs::write(&seg, &bytes).unwrap();
            let err = recover_collecting(LogConfig::new(&dir)).unwrap_err();
            assert!(
                matches!(&err, ServeError::Log { detail }
                    if detail.contains("not a torn tail")
                        && detail.contains(&format!("truncating to {second} bytes"))),
                "flip at {at}: {err}"
            );
            assert_eq!(std::fs::metadata(&seg).unwrap().len(), full_len);
        }

        // Without per-batch sync nothing after the last sync was promised durable, and
        // a power loss may persist pages out of order: the same damage is a torn tail.
        let mut config = LogConfig::new(&dir);
        config.sync_every_batch = false;
        let (recovered, _, recovered_records) = recover_collecting(config).unwrap();
        assert_eq!(recovered_records, records[..2].to_vec());
        assert_eq!(recovered.recovery.truncated_bytes, full_len - second as u64);
        drop(recovered);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), second as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_rejects_a_torn_sealed_segment() {
        let dir = tmp_dir("sealed");
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1;
        let mut log = DecisionLog::create(config.clone()).unwrap();
        let records = sample_records(2);
        log.append(&records[..2]).unwrap();
        log.append(&records[2..]).unwrap(); // rotates: segment 0 is now sealed
        drop(log);
        let seg0 = dir.join(wal::segment_file_name(0));
        let bytes = std::fs::read(&seg0).unwrap();
        std::fs::write(&seg0, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            recover_collecting(config),
            Err(ServeError::Log { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir` with its bytes.
    fn dir_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_torn_middle_segment_fails_after_the_first_was_sunk_and_touches_no_file() {
        let dir = tmp_dir("torn-middle");
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1;
        let mut log = DecisionLog::create(config.clone()).unwrap();
        let records = sample_records(3);
        for pair in records.chunks(2) {
            log.append(pair).unwrap(); // one batch per segment: 0, 1, 2
        }
        drop(log);
        let seg1 = dir.join(wal::segment_file_name(1));
        let bytes = std::fs::read(&seg1).unwrap();
        std::fs::write(&seg1, &bytes[..bytes.len() - 1]).unwrap();
        let before = dir_files(&dir);
        assert_eq!(before.len(), 3);

        // Segment 0 streams to the sink before segment 1 is read; the torn sealed
        // segment then fails recovery, and nothing was truncated or removed.
        let mut seen = Vec::new();
        let err = DecisionLog::recover(config, |event| {
            seen.push(event);
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(&err, ServeError::Log { detail } if detail.contains("sealed segment")),
            "{err}"
        );
        assert_eq!(seen, vec![RecoveryEvent::Batch(records[..2].to_vec())]);
        assert_eq!(dir_files(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sink_error_stops_recovery_and_touches_no_file() {
        let dir = tmp_dir("sink-error");
        let mut log = DecisionLog::create(LogConfig::new(&dir)).unwrap();
        let records = sample_records(2);
        log.append(&records[..2]).unwrap();
        log.append(&records[2..]).unwrap();
        drop(log);
        // A torn tail that a successful recovery would truncate.
        let seg = dir.join(wal::segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let before = dir_files(&dir);

        let mut calls = 0;
        let err = DecisionLog::recover(LogConfig::new(&dir), |_| {
            calls += 1;
            Err(ServeError::Recovery {
                detail: "refused by the sink".into(),
            })
        })
        .unwrap_err();
        assert!(matches!(err, ServeError::Recovery { .. }), "{err}");
        assert_eq!(calls, 1, "the first sink error ends the scan");
        assert_eq!(dir_files(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_compacted_log_hands_its_base_to_the_sink_before_the_first_batch() {
        let dir = tmp_dir("base-first");
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1;
        let mut log = DecisionLog::create(config.clone()).unwrap();
        let records = sample_records(4);
        for pair in records[..4].chunks(2) {
            log.append(pair).unwrap();
        }
        log.compact(4, vec![(3, Arc::new(context(1)))], vec![7])
            .unwrap();
        for pair in records[4..].chunks(2) {
            log.append(pair).unwrap(); // suffix segments 2 and 3
        }
        drop(log);

        let mut seen = Vec::new();
        let recovered = DecisionLog::recover(config, |event| {
            seen.push(event);
            Ok(())
        })
        .unwrap();
        assert_eq!(recovered.recovery.base, Some(2));
        assert_eq!(recovered.recovery.batches, 2);
        let base = BaseImage {
            suffix_start: 2,
            next_request_id: 4,
            pending: vec![(3, Arc::new(context(1)))],
            policy: vec![7],
        };
        assert_eq!(
            seen,
            vec![
                RecoveryEvent::Base(base),
                RecoveryEvent::Batch(records[4..6].to_vec()),
                RecoveryEvent::Batch(records[6..].to_vec()),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_removes_rotation_leftovers_and_fresh_dir_is_empty() {
        let dir = tmp_dir("tmp-files");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("segment-00000000.wlog.tmp"), b"half a header").unwrap();
        std::fs::write(dir.join("base-00000000.ckpt.tmp"), b"half a base").unwrap();
        let (recovered, base, records) = recover_collecting(LogConfig::new(&dir)).unwrap();
        assert!(base.is_none() && records.is_empty());
        assert_eq!(recovered.recovery.removed_tmp, 2);
        assert_eq!(recovered.recovery.segments, 0);
        let mut log = recovered.log;
        log.append(&sample_records(1)).unwrap();
        drop(log);
        assert_eq!(DecisionLog::read(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_writes_a_base_and_deletes_absorbed_segments() {
        let dir = tmp_dir("compact");
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1;
        let mut log = DecisionLog::create(config.clone()).unwrap();
        let records = sample_records(4);
        for pair in records.chunks(2) {
            log.append(pair).unwrap();
        }
        assert_eq!(log.live_segments(), 4);
        let pending = vec![(7, Arc::new(context(9)))];
        let stats = log
            .compact(8, pending.clone(), b"policy-bytes".to_vec())
            .unwrap();
        assert_eq!(stats.suffix_start, 4);
        assert_eq!(stats.absorbed_segments, 4);
        assert!(stats.base_bytes > 0);
        assert_eq!(log.live_segments(), 1);
        assert_eq!(log.first_index(), 4);
        // The suffix continues after the cut.
        let more = sample_records(5);
        log.append(&more[8..]).unwrap();
        drop(log);

        // Full read refuses (the prefix is gone); the tail read returns the base.
        assert!(matches!(
            DecisionLog::read(&dir),
            Err(ServeError::Log { .. })
        ));
        let (base, tail) = DecisionLog::read_tail(&Fs::real(), &dir).unwrap();
        let base = base.unwrap();
        assert_eq!(base.suffix_start, 4);
        assert_eq!(base.next_request_id, 8);
        assert_eq!(base.pending, pending);
        assert_eq!(base.policy, b"policy-bytes");
        assert_eq!(tail, more[8..].to_vec());

        let (recovered, recovered_base, records) = recover_collecting(config).unwrap();
        assert_eq!(recovered.recovery.base, Some(4));
        assert_eq!(recovered_base.unwrap(), base);
        assert_eq!(records, more[8..].to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_finishes_an_interrupted_compaction() {
        let dir = tmp_dir("interrupted");
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1;
        let mut log = DecisionLog::create(config.clone()).unwrap();
        let records = sample_records(3);
        for pair in records.chunks(2) {
            log.append(pair).unwrap();
        }
        drop(log);
        // Simulate a crash right after the base was published: segments 0..=2 are
        // still on disk even though the base absorbs everything below 2.
        let base = BaseImage {
            suffix_start: 2,
            next_request_id: 4,
            pending: Vec::new(),
            policy: vec![1, 2, 3],
        };
        base.to_snapshot()
            .write_to(&Fs::real(), dir.join(base_file_name(2)))
            .unwrap();

        let (recovered, recovered_base, recovered_records) = recover_collecting(config).unwrap();
        assert_eq!(recovered.recovery.base, Some(2));
        assert_eq!(recovered_base, Some(base));
        assert_eq!(recovered.recovery.removed_absorbed, 2);
        assert_eq!(recovered_records, records[4..].to_vec());
        assert!(!dir.join(wal::segment_file_name(0)).exists());
        assert!(!dir.join(wal::segment_file_name(1)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_invalid_base_falls_back_to_full_replay() {
        let dir = tmp_dir("bad-base");
        let mut log = DecisionLog::create(LogConfig::new(&dir)).unwrap();
        let records = sample_records(2);
        log.append(&records).unwrap();
        drop(log);
        std::fs::write(dir.join(base_file_name(0)), b"not a snapshot at all").unwrap();

        let (recovered, base, recovered_records) =
            recover_collecting(LogConfig::new(&dir)).unwrap();
        assert_eq!(recovered.recovery.invalid_bases, 1);
        assert_eq!(recovered.recovery.base, None);
        assert!(base.is_none());
        assert_eq!(recovered_records, records);
        std::fs::remove_dir_all(&dir).unwrap();

        // But a compacted prefix with no valid base is an error, never partial replay.
        let (dir, config) = log_compacted_at_segment_2("bad-base-compacted");
        std::fs::write(dir.join(base_file_name(1)), b"garbage").unwrap();
        std::fs::remove_file(dir.join(base_file_name(2))).unwrap();
        assert!(matches!(
            recover_collecting(config),
            Err(ServeError::Log { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Four records in segments 0 and 1, then a compaction: base 2 plus segment 2.
    fn log_compacted_at_segment_2(tag: &str) -> (PathBuf, LogConfig) {
        let dir = tmp_dir(tag);
        let mut config = LogConfig::new(&dir);
        config.segment_bytes = 1;
        let mut log = DecisionLog::create(config.clone()).unwrap();
        for pair in sample_records(2).chunks(2) {
            log.append(pair).unwrap();
        }
        log.compact(4, Vec::new(), vec![9]).unwrap();
        drop(log);
        (dir, config)
    }

    #[test]
    fn reads_refuse_a_compacted_log_with_no_valid_base_like_recover() {
        let (dir, config) = log_compacted_at_segment_2("bad-base-read");
        std::fs::write(dir.join(base_file_name(2)), b"garbage").unwrap();
        // The suffix alone is not the history: every reader refuses, none returns it.
        assert!(matches!(
            DecisionLog::read(&dir),
            Err(ServeError::Log { .. })
        ));
        assert!(matches!(
            DecisionLog::read_tail(&Fs::real(), &dir),
            Err(ServeError::Log { .. })
        ));
        assert!(matches!(
            recover_collecting(config),
            Err(ServeError::Log { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layout_sorts_checks_contiguity_and_separates_tmp() {
        let dir = tmp_dir("layout");
        std::fs::create_dir_all(&dir).unwrap();
        let fs = Fs::real();
        SegmentWriter::create(&fs, &dir, 0).unwrap();
        SegmentWriter::create(&fs, &dir, 1).unwrap();
        std::fs::write(dir.join("segment-00000002.wlog.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("base-00000001.ckpt.tmp"), b"partial").unwrap();
        std::fs::write(dir.join(base_file_name(1)), b"unchecked here").unwrap();
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let indices =
            |layout: &LogLayout| -> Vec<u64> { layout.segments.iter().map(|(i, _)| *i).collect() };
        let layout = LogLayout::scan(&fs, &dir).unwrap();
        assert_eq!(indices(&layout), vec![0, 1]);
        assert_eq!(layout.bases.len(), 1);
        assert_eq!(layout.tmp.len(), 2);

        // A gap is corruption.
        std::fs::remove_file(dir.join(wal::segment_file_name(1))).unwrap();
        SegmentWriter::create(&fs, &dir, 2).unwrap();
        assert!(matches!(
            LogLayout::scan(&fs, &dir),
            Err(ServeError::Log { .. })
        ));

        // A non-zero *start* is legal in the listing (compacted log); `live` decides.
        std::fs::remove_file(dir.join(wal::segment_file_name(0))).unwrap();
        SegmentWriter::create(&fs, &dir, 3).unwrap();
        let layout = LogLayout::scan(&fs, &dir).unwrap();
        assert_eq!(indices(&layout), vec![2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_retrying_heals_an_injected_short_write() {
        // Learn the global op index of the first append's frame write.
        let dir = tmp_dir("retry-probe");
        let (fs, probe) = Fs::faulty(FaultPlan::none());
        let mut config = LogConfig::new(&dir);
        config.fs = fs;
        let mut log = DecisionLog::create(config).unwrap();
        let write_op = probe.ops();
        log.append(&sample_records(1)).unwrap();
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();

        // Re-run with exactly that op poisoned (once): the short write leaves a
        // partial frame, append_retrying truncates it and the retry succeeds.
        let dir = tmp_dir("retry");
        let (fs, probe) = Fs::faulty(FaultPlan::fail_op(write_op));
        let mut config = LogConfig::new(&dir);
        config.fs = fs;
        let mut log = DecisionLog::create(config).unwrap();
        let records = sample_records(1);
        log.append_retrying(&records).unwrap();
        assert_eq!(probe.fired().len(), 1);
        assert_eq!(log.batches(), 1);
        drop(log);
        assert_eq!(DecisionLog::read(&dir).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_retrying_survives_a_failed_sync_without_duplicating_the_batch() {
        let dir = tmp_dir("retry-sync");
        let (fs, probe) = Fs::faulty(FaultPlan::none().with_rule(FaultRule {
            from_op: 0,
            to_op: u64::MAX,
            class: Some(OpClass::SyncData),
            kind: FaultKind::Fail,
            once: true,
        }));
        let mut config = LogConfig::new(&dir);
        config.fs = fs;
        let mut log = DecisionLog::create(config).unwrap();
        let records = sample_records(1);
        // The first per-batch fdatasync fails after a complete write; the retry must
        // land the batch exactly once.
        log.append_retrying(&records).unwrap();
        assert_eq!(probe.fired().len(), 1);
        assert_eq!(log.batches(), 1);
        drop(log);
        assert_eq!(DecisionLog::read(&dir).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
