//! Durable checkpoint journal for streaming campaigns: an append-only,
//! fsync'd record of which slots have been folded, so a SIGKILL'd (or
//! OOM-killed, or preempted) shard can resume and produce a merged
//! [`StreamReport`](crate::StreamReport) byte-identical to an
//! uninterrupted run.
//!
//! # Record format
//!
//! One record per line, length-prefixed and checksummed:
//!
//! ```text
//! {len} {fnv1a64:016x} {payload}\n
//! ```
//!
//! where `len` is the payload's byte length in decimal, the checksum is
//! FNV-1a over the payload bytes, and the payload is one canonical
//! `hvsim-obs` JSONL trace event (the same codec `trace validate`
//! enforces). Three record kinds, distinguished by the event path:
//!
//! | path             | file               | meaning                   |
//! |------------------|--------------------|---------------------------|
//! | `journal/header` | both               | grid fingerprint + shard; first record, synced in the journal |
//! | `journal/slot`   | `<journal>.slots`  | one folded slot + digest; buffered, never synced |
//! | `journal/fold`   | journal            | a worker's cumulative fold + the batch of slots it covers since that worker's previous fold; fsync'd |
//!
//! Only `journal/fold` records drive recovery: the done-set is the
//! union of their slot batches, and each worker's last fold record is
//! its exact cumulative state — fsync ordering guarantees a fold record
//! is durable before any slot it covers is considered done. `slot`
//! records are forensic detail (which cells ran, in what order, with
//! what digest); they live in the `<journal>.slots` sidecar precisely
//! because `fsync` is a whole-file operation — at ~150 bytes per cell
//! they would otherwise ride along on every fold sync and dominate the
//! journal's durability cost. The sidecar is never synced and never
//! read by recovery; losing it loses postmortem detail only. Because
//! even unsynced per-cell writes cost measurable throughput on slow or
//! contended storage, the sidecar is opt-in
//! ([`CampaignConfig::journal_slots`](crate::CampaignConfig::journal_slots),
//! `--journal-slots` on the CLI); by default a checkpointed run writes
//! folds only.
//!
//! # Crash model
//!
//! A crash can tear the final record (partial write, no trailing
//! newline, bad checksum). Recovery scans from the start and stops at
//! the **first** invalid record, truncating the journal there before
//! appending — the torn-tail policy. Everything before the cut is
//! internally consistent by construction; everything after it is
//! conservatively re-run. Re-running a slot is always safe: every cell
//! is a pure function of its [`CellSpec`](crate::CellSpec), and every
//! report aggregate is a commutative monoid, so "at least the recorded
//! slots are done" is exactly the invariant resume needs.

use crate::error::CheckpointError;
use crate::stream::{GridFingerprint, PartialFold, Shard};
use hvsim_obs::{encode_event, parse_line, EventKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// FNV-1a 64-bit: the journal's checksum and the slot digest hash.
/// Deliberately simple — the journal defends against torn writes, not
/// adversarial corruption.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Where journal bytes go. The production implementation is
/// [`FileSink`]; chaos testing substitutes a sink that tears writes,
/// which is why this is a trait and not a `File`.
pub trait JournalSink: Send {
    /// Appends bytes (one framed record) to the journal.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure; the writer degrades to a no-op
    /// rather than failing the campaign.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Makes previously appended bytes durable (fsync or equivalent).
    ///
    /// # Errors
    ///
    /// The underlying I/O failure.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// The production sink: a plain append-mode file, `sync_data` on
/// [`JournalSink::sync`].
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Wraps an already positioned file handle.
    pub fn new(file: File) -> Self {
        Self { file }
    }
}

impl JournalSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// The journal's identity record: which campaign grid (and shard) the
/// journal belongs to. Resume refuses any mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Fingerprint of the campaign grid.
    pub grid: GridFingerprint,
    /// The shard the journal's run covered (`None` = whole grid).
    pub shard: Option<Shard>,
}

impl JournalHeader {
    /// Renders `grid` + shard for mismatch diagnostics.
    pub(crate) fn render(grid: &GridFingerprint, shard: Option<Shard>) -> String {
        match shard {
            Some(s) => format!("{grid}, shard {s}"),
            None => format!("{grid}, unsharded"),
        }
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JournalRecord {
    /// First record of every journal.
    Header {
        grid: GridFingerprint,
        shard: Option<Shard>,
    },
    /// One slot folded by `worker` — buffered diagnostics.
    SlotDone {
        worker: u64,
        seq: u64,
        slot: u64,
        digest: u64,
    },
    /// `worker`'s cumulative fold, covering `slots` since its previous
    /// fold record — the durable unit of recovery.
    Fold {
        worker: u64,
        seq: u64,
        slots: Vec<u64>,
        fold: Box<PartialFold>,
    },
}

fn attr<'a>(event: &'a TraceEvent, key: &str) -> Result<&'a str, String> {
    event
        .attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("record is missing attr \"{key}\""))
}

impl JournalRecord {
    /// Encodes this record as one framed journal line (with trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// Serializer failures (unreachable for this data model).
    pub(crate) fn encode(&self) -> Result<String, String> {
        let event = match self {
            JournalRecord::Header { grid, shard } => TraceEvent {
                shard: 0,
                seq: 0,
                kind: EventKind::Point,
                path: "journal/header".to_owned(),
                wall_us: 0,
                attrs: vec![
                    (
                        "grid".to_owned(),
                        serde_json::to_string(grid).map_err(|e| e.to_string())?,
                    ),
                    (
                        "shard".to_owned(),
                        shard.map_or_else(|| "-".to_owned(), |s| s.to_string()),
                    ),
                ],
            },
            JournalRecord::SlotDone { worker, seq, slot, digest } => TraceEvent {
                shard: *worker,
                seq: *seq,
                kind: EventKind::Point,
                path: "journal/slot".to_owned(),
                wall_us: 0,
                attrs: vec![
                    ("slot".to_owned(), slot.to_string()),
                    ("digest".to_owned(), format!("{digest:016x}")),
                ],
            },
            JournalRecord::Fold { worker, seq, slots, fold } => {
                let mut joined = String::new();
                for (i, slot) in slots.iter().enumerate() {
                    if i > 0 {
                        joined.push(',');
                    }
                    let _ = write!(joined, "{slot}");
                }
                TraceEvent {
                    shard: *worker,
                    seq: *seq,
                    kind: EventKind::Point,
                    path: "journal/fold".to_owned(),
                    wall_us: 0,
                    attrs: vec![
                        ("slots".to_owned(), joined),
                        (
                            "fold".to_owned(),
                            serde_json::to_string(fold.as_ref()).map_err(|e| e.to_string())?,
                        ),
                    ],
                }
            }
        };
        let payload = encode_event(&event);
        Ok(format!("{} {:016x} {payload}\n", payload.len(), fnv64(payload.as_bytes())))
    }

    /// Decodes one journal line (without its trailing newline),
    /// verifying framing, checksum, codec, and record schema.
    pub(crate) fn decode(line: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_owned())?;
        let (len_text, rest) =
            text.split_once(' ').ok_or_else(|| "missing length prefix".to_owned())?;
        let (sum_text, payload) =
            rest.split_once(' ').ok_or_else(|| "missing checksum".to_owned())?;
        let len: usize =
            len_text.parse().map_err(|_| format!("bad length prefix '{len_text}'"))?;
        let sum = u64::from_str_radix(sum_text, 16)
            .map_err(|_| format!("bad checksum '{sum_text}'"))?;
        if payload.len() != len {
            return Err(format!("length mismatch: prefix {len}, payload {}", payload.len()));
        }
        if fnv64(payload.as_bytes()) != sum {
            return Err("checksum mismatch".to_owned());
        }
        let event = parse_line(payload).map_err(|e| e.to_string())?;
        match event.path.as_str() {
            "journal/header" => {
                let grid: GridFingerprint = serde_json::from_str(attr(&event, "grid")?)
                    .map_err(|e| format!("bad grid fingerprint: {e}"))?;
                let shard_text = attr(&event, "shard")?;
                let shard = if shard_text == "-" {
                    None
                } else {
                    Some(Shard::parse(shard_text).map_err(|e| format!("bad shard: {e}"))?)
                };
                Ok(JournalRecord::Header { grid, shard })
            }
            "journal/slot" => {
                let slot: u64 = attr(&event, "slot")?
                    .parse()
                    .map_err(|_| "bad slot number".to_owned())?;
                let digest = u64::from_str_radix(attr(&event, "digest")?, 16)
                    .map_err(|_| "bad slot digest".to_owned())?;
                Ok(JournalRecord::SlotDone { worker: event.shard, seq: event.seq, slot, digest })
            }
            "journal/fold" => {
                let slots_text = attr(&event, "slots")?;
                let mut slots = Vec::new();
                if !slots_text.is_empty() {
                    for part in slots_text.split(',') {
                        slots.push(
                            part.parse().map_err(|_| format!("bad slot '{part}' in batch"))?,
                        );
                    }
                }
                let fold: PartialFold = serde_json::from_str(attr(&event, "fold")?)
                    .map_err(|e| format!("bad fold snapshot: {e}"))?;
                Ok(JournalRecord::Fold {
                    worker: event.shard,
                    seq: event.seq,
                    slots,
                    fold: Box::new(fold),
                })
            }
            other => Err(format!("unknown journal record path \"{other}\"")),
        }
    }
}

/// Everything recovery extracts from a journal file, tolerating a torn
/// tail: the header, each worker's last durable fold, the union of
/// folded slots, and the byte offset of the first invalid record (where
/// resume truncates before appending).
pub(crate) struct JournalState {
    pub(crate) header: JournalHeader,
    /// Each worker's last valid cumulative fold, keyed by worker id.
    pub(crate) folds: BTreeMap<u64, PartialFold>,
    /// Every slot covered by a valid fold record.
    pub(crate) done: BTreeSet<u64>,
    /// One past the highest worker id seen (resume generations continue
    /// from here so journal lines stay attributable).
    pub(crate) next_worker: u64,
    /// Length of the valid prefix, in bytes.
    pub(crate) valid_bytes: u64,
}

impl JournalState {
    /// Loads and validates a journal, stopping at the first invalid
    /// record (the torn-tail policy — a short tail is expected after a
    /// crash, never an error).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read;
    /// [`CheckpointError::Header`] when the leading header record is
    /// missing or malformed (the file was never a journal).
    pub(crate) fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let mut offset = 0usize;
        let mut header: Option<JournalHeader> = None;
        let mut folds: BTreeMap<u64, PartialFold> = BTreeMap::new();
        let mut done: BTreeSet<u64> = BTreeSet::new();
        let mut next_worker = 1u64;
        while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
            let record = match JournalRecord::decode(&bytes[offset..offset + nl]) {
                Ok(record) => record,
                Err(message) => {
                    if header.is_none() {
                        return Err(CheckpointError::Header {
                            path: path.display().to_string(),
                            message,
                        });
                    }
                    break; // Torn tail: keep the valid prefix.
                }
            };
            match record {
                JournalRecord::Header { grid, shard } => {
                    if header.is_some() {
                        break; // A second header is not ours; treat as torn.
                    }
                    header = Some(JournalHeader { grid, shard });
                }
                _ if header.is_none() => {
                    return Err(CheckpointError::Header {
                        path: path.display().to_string(),
                        message: "first record is not a journal header".to_owned(),
                    });
                }
                JournalRecord::SlotDone { worker, .. } => {
                    next_worker = next_worker.max(worker + 1);
                }
                JournalRecord::Fold { worker, slots, fold, .. } => {
                    next_worker = next_worker.max(worker + 1);
                    done.extend(slots);
                    folds.insert(worker, *fold);
                }
            }
            offset += nl + 1;
        }
        let header = header.ok_or_else(|| CheckpointError::Header {
            path: path.display().to_string(),
            message: "journal is empty".to_owned(),
        })?;
        Ok(Self { header, folds, done, next_worker, valid_bytes: offset as u64 })
    }
}

/// The forensic slot-record sidecar that rides next to a journal:
/// `<journal>.slots` (extension appended, not replaced, so distinct
/// journals never collide).
pub(crate) fn sidecar_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".slots");
    std::path::PathBuf::from(os)
}

/// Reads just the identity of a checkpoint journal — what the CLI
/// `campaign resume` uses to configure the campaign (trials, shard)
/// before the full resume validates the complete fingerprint.
///
/// # Errors
///
/// [`CheckpointError`] when the file is unreadable or is not a journal.
pub fn read_header(path: &Path) -> Result<JournalHeader, CheckpointError> {
    Ok(JournalState::load(path)?.header)
}

/// Counter snapshot of a journal writer, for the
/// `campaign.checkpoint.*` metrics fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CheckpointCounters {
    pub(crate) slots: u64,
    pub(crate) folds: u64,
    pub(crate) syncs: u64,
    pub(crate) bytes: u64,
    pub(crate) write_errors: u64,
}

/// Thread-safe journal writer: the fsync'd recovery journal plus the
/// optional never-synced slot sidecar. **Fail-soft**: the first I/O
/// error on either file disables that file for the rest of the run
/// (counted in `write_errors`) — a broken journal must degrade
/// durability, never the campaign itself — and the two latches are
/// independent, so a full forensics disk cannot stop checkpointing.
pub(crate) struct CheckpointWriter {
    sink: Mutex<Box<dyn JournalSink>>,
    /// The `<journal>.slots` sidecar (`None` when it could not be
    /// opened — forensics are best-effort by design).
    slot_sink: Mutex<Option<Box<dyn JournalSink>>>,
    failed: AtomicBool,
    slots_failed: AtomicBool,
    slots: AtomicU64,
    folds: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    write_errors: AtomicU64,
}

impl CheckpointWriter {
    fn new(sink: Box<dyn JournalSink>, slot_sink: Option<Box<dyn JournalSink>>) -> Self {
        Self {
            sink: Mutex::new(sink),
            slots_failed: AtomicBool::new(slot_sink.is_none()),
            slot_sink: Mutex::new(slot_sink),
            failed: AtomicBool::new(false),
            slots: AtomicU64::new(0),
            folds: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// `true` while the slot sidecar accepts records — callers skip the
    /// digest and encoding work when it is off or its fail-soft latch
    /// has tripped.
    pub(crate) fn slot_recording(&self) -> bool {
        !self.slots_failed.load(Ordering::Relaxed)
    }

    fn trip(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        self.failed.store(true, Ordering::Relaxed);
    }

    /// Flushes a worker's buffered slot lines to the sidecar (never
    /// synced — an fsync on the journal would otherwise flush every
    /// forensic byte too, and at ~150 bytes/cell that dwarfs the folds)
    /// and appends one fold record to the journal, synced. This is the
    /// *only* steady-state write path: slot records cost a buffer push
    /// on the hot path and hit a sink once per fold interval. Errors
    /// trip the per-file fail-soft latch instead of propagating.
    fn append_batch(&self, slot_lines: &str, slot_count: u64, fold: &JournalRecord) {
        if !slot_lines.is_empty() && self.slot_recording() {
            let mut guard = self.slot_sink.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(sink) = guard.as_mut() {
                if sink.append(slot_lines.as_bytes()).is_ok() {
                    self.bytes.fetch_add(slot_lines.len() as u64, Ordering::Relaxed);
                    self.slots.fetch_add(slot_count, Ordering::Relaxed);
                } else {
                    self.write_errors.fetch_add(1, Ordering::Relaxed);
                    self.slots_failed.store(true, Ordering::Relaxed);
                }
            }
        }
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let line = match fold.encode() {
            Ok(line) => line,
            Err(_) => {
                self.trip();
                return;
            }
        };
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(_e) = sink.append(line.as_bytes()) {
            self.trip();
            return;
        }
        self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        self.folds.fetch_add(1, Ordering::Relaxed);
        if let Err(_e) = sink.sync() {
            self.trip();
            return;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn counters(&self) -> CheckpointCounters {
        CheckpointCounters {
            slots: self.slots.load(Ordering::Relaxed),
            folds: self.folds.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

/// Sink transformer hook: the identity for production runs, a
/// torn-write chaos wrapper under `ChaosConfig`.
pub(crate) type SinkWrap<'a> = &'a dyn Fn(Box<dyn JournalSink>) -> Box<dyn JournalSink>;

/// A worker's local slot-record buffer: framed `journal/slot` lines
/// accumulated between fold records, plus a scratch string so the hot
/// path allocates nothing in steady state. Slot records are the
/// journal's per-cell cost, so they get a hand-rolled encoder (pinned
/// byte-for-byte to [`JournalRecord::encode`] by a unit test) instead
/// of the general `TraceEvent` path.
#[derive(Default)]
pub(crate) struct SlotBuffer {
    lines: String,
    scratch: String,
}

impl SlotBuffer {
    /// Appends one framed `journal/slot` line without allocating.
    fn push_slot(&mut self, worker: u64, seq: u64, slot: u64, digest: u64) {
        self.scratch.clear();
        let _ = write!(
            self.scratch,
            "{{\"shard\":{worker},\"seq\":{seq},\"kind\":\"point\",\
             \"path\":\"journal/slot\",\"wall_us\":0,\
             \"attrs\":{{\"slot\":\"{slot}\",\"digest\":\"{digest:016x}\"}}}}"
        );
        let _ = write!(
            self.lines,
            "{} {:016x} ",
            self.scratch.len(),
            fnv64(self.scratch.as_bytes())
        );
        self.lines.push_str(&self.scratch);
        self.lines.push('\n');
    }
}

/// One campaign run's attachment to a journal: the writer plus the
/// recovered state a resumed run starts from (empty for a fresh run).
pub(crate) struct CheckpointSession {
    pub(crate) writer: CheckpointWriter,
    /// Slots already covered by durable fold records — the executor
    /// skips these.
    pub(crate) done: BTreeSet<u64>,
    /// Each prior worker's last cumulative fold, merged into the final
    /// report exactly as if those cells had just run.
    pub(crate) recovered: Vec<PartialFold>,
    /// First worker id for this run's workers (continues past prior
    /// generations so journal lines stay attributable).
    pub(crate) first_worker: u64,
    /// Slots between fold records, per worker.
    pub(crate) interval: u64,
}

impl CheckpointSession {
    /// Starts a fresh journal at `path` (truncating any existing file)
    /// and makes the header durable before any cell runs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the journal cannot be created or
    /// its header cannot be written — a checkpointed campaign refuses
    /// to start without a durable journal.
    pub(crate) fn create(
        path: &Path,
        grid: GridFingerprint,
        shard: Option<Shard>,
        interval: u64,
        slots: bool,
        wrap: SinkWrap<'_>,
    ) -> Result<Self, CheckpointError> {
        let io_err = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let file = File::create(path).map_err(io_err)?;
        let mut sink = wrap(Box::new(FileSink::new(file)));
        let header = JournalRecord::Header { grid, shard };
        let line = header.encode().map_err(|message| CheckpointError::Io {
            path: path.display().to_string(),
            message,
        })?;
        sink.append(line.as_bytes()).map_err(io_err)?;
        sink.sync().map_err(io_err)?;
        // The forensic sidecar is opt-in and best-effort: when enabled
        // it opens fresh alongside the journal and gets the same header
        // (unsynced) so the pair stays self-identifying, but failure to
        // open it degrades forensics, never checkpointing.
        let slot_sink = slots
            .then(|| File::create(sidecar_path(path)).ok())
            .flatten()
            .map(|f| {
                let mut s: Box<dyn JournalSink> = Box::new(FileSink::new(f));
                let _ = s.append(line.as_bytes());
                s
            });
        let writer = CheckpointWriter::new(sink, slot_sink);
        writer.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        Ok(Self {
            writer,
            done: BTreeSet::new(),
            recovered: Vec::new(),
            first_worker: 1,
            interval: interval.max(1),
        })
    }

    /// Reopens a journal for resume: loads the valid prefix, verifies
    /// the grid/shard identity, truncates the torn tail, and positions
    /// the sink for appending.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the journal is unreadable, is not a
    /// journal, or belongs to a different campaign grid or shard.
    pub(crate) fn resume(
        path: &Path,
        grid: &GridFingerprint,
        shard: Option<Shard>,
        interval: u64,
        slots: bool,
        wrap: SinkWrap<'_>,
    ) -> Result<Self, CheckpointError> {
        let state = JournalState::load(path)?;
        if state.header.grid != *grid || state.header.shard != shard {
            return Err(CheckpointError::GridMismatch {
                journal: JournalHeader::render(&state.header.grid, state.header.shard),
                campaign: JournalHeader::render(grid, shard),
            });
        }
        let io_err = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let mut file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
        file.set_len(state.valid_bytes).map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        let sink = wrap(Box::new(FileSink::new(file)));
        // When enabled, the sidecar appends across generations (a torn
        // line at a kill boundary garbles one forensic record, nothing
        // else), and its absence is not an error — forensics are
        // best-effort.
        let slot_sink = slots
            .then(|| {
                OpenOptions::new().append(true).create(true).open(sidecar_path(path)).ok()
            })
            .flatten()
            .map(|f| Box::new(FileSink::new(f)) as Box<dyn JournalSink>);
        Ok(Self {
            writer: CheckpointWriter::new(sink, slot_sink),
            done: state.done,
            recovered: state.folds.into_values().collect(),
            first_worker: state.next_worker,
            interval: interval.max(1),
        })
    }

    /// `true` when a durable fold record already covers this slot.
    pub(crate) fn is_done(&self, slot: u64) -> bool {
        self.done.contains(&slot)
    }

    /// Number of slots recovered from the journal (skipped on resume).
    pub(crate) fn resumed_slots(&self) -> u64 {
        self.done.len() as u64
    }

    /// Records one folded slot into the worker's local buffer — pure
    /// memory, no lock, no syscall. The buffer reaches the sink with
    /// the worker's next [`record_fold`](Self::record_fold); a crash
    /// before then loses only forensic detail, never durability.
    pub(crate) fn record_slot(
        &self,
        buf: &mut SlotBuffer,
        worker: u64,
        seq: u64,
        slot: u64,
        digest: u64,
    ) {
        if !self.writer.slot_recording() {
            return;
        }
        buf.push_slot(worker, seq, slot, digest);
    }

    /// Flushes the worker's buffered slot lines and records its
    /// cumulative fold covering `slots` since its previous fold record,
    /// then syncs — after this returns, those slots survive any crash.
    pub(crate) fn record_fold(
        &self,
        buf: &mut SlotBuffer,
        worker: u64,
        seq: u64,
        slots: Vec<u64>,
        fold: &PartialFold,
    ) {
        let slot_count = slots.len() as u64;
        self.writer.append_batch(
            &buf.lines,
            slot_count,
            &JournalRecord::Fold { worker, seq, slots, fold: Box::new(fold.clone()) },
        );
        buf.lines.clear();
    }
}

/// An [`std::fmt::Write`] adapter that FNV-1a-hashes whatever is
/// formatted into it — the slot digest's way of hashing a formatted
/// summary without allocating a `String` per cell.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// The slot digest recorded next to each `journal/slot` entry: a
/// schedule-independent hash of the cell's assessment-relevant outcome,
/// so two runs of the same slot can be compared forensically.
pub(crate) fn slot_digest(cell: &crate::campaign::CellResult) -> u64 {
    let mut hasher = FnvWriter(0xcbf2_9ce4_8422_2325);
    let _ = write!(
        hasher,
        "{}|{}|{}|{}|{}|{}",
        cell.use_case,
        cell.version,
        cell.mode,
        cell.erroneous_state,
        cell.violations.len(),
        cell.degraded(),
    );
    hasher.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mode;
    use hvsim::XenVersion;

    fn fingerprint() -> GridFingerprint {
        GridFingerprint {
            use_cases: vec!["XSA-212-crash".into()],
            versions: vec![XenVersion::V4_6, XenVersion::V4_13],
            modes: vec![Mode::Injection],
            trials: 7,
        }
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let records = [
            JournalRecord::Header { grid: fingerprint(), shard: Some(Shard { index: 1, count: 4 }) },
            JournalRecord::Header { grid: fingerprint(), shard: None },
            JournalRecord::SlotDone { worker: 3, seq: 9, slot: 42, digest: 0xdead_beef },
            JournalRecord::Fold {
                worker: 2,
                seq: 4,
                slots: vec![1, 5, 9],
                fold: Box::new(PartialFold::default()),
            },
            JournalRecord::Fold { worker: 1, seq: 1, slots: vec![], fold: Box::default() },
        ];
        for record in records {
            let line = record.encode().unwrap();
            assert!(line.ends_with('\n'));
            let back = JournalRecord::decode(line.trim_end().as_bytes()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn slot_buffer_fast_path_matches_the_canonical_encoder() {
        let mut buf = SlotBuffer::default();
        let cases =
            [(1u64, 1u64, 0u64, 0u64), (7, 42, 99_999, 0xdead_beef), (u64::MAX, u64::MAX, u64::MAX, u64::MAX)];
        for (worker, seq, slot, digest) in cases {
            buf.lines.clear();
            buf.push_slot(worker, seq, slot, digest);
            let canonical = JournalRecord::SlotDone { worker, seq, slot, digest }
                .encode()
                .unwrap();
            assert_eq!(buf.lines, canonical, "hand-rolled slot line diverged from the codec");
        }
    }

    #[test]
    fn decode_rejects_torn_and_corrupt_frames() {
        let line = JournalRecord::SlotDone { worker: 1, seq: 1, slot: 7, digest: 1 }
            .encode()
            .unwrap();
        let whole = line.trim_end();
        // Torn: any strict prefix must fail (length or checksum).
        for cut in 1..whole.len() {
            assert!(JournalRecord::decode(&whole.as_bytes()[..cut]).is_err(), "cut at {cut}");
        }
        // Flipped payload byte: checksum catches it.
        let mut flipped = whole.as_bytes().to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(JournalRecord::decode(&flipped).is_err());
        assert!(JournalRecord::decode(b"not a record").is_err());
    }

    #[test]
    fn load_recovers_the_valid_prefix_of_a_torn_journal() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let header = JournalRecord::Header { grid: fingerprint(), shard: None };
        let fold_a = JournalRecord::Fold {
            worker: 1,
            seq: 2,
            slots: vec![0, 2, 4],
            fold: Box::new(PartialFold::default()),
        };
        let fold_b = JournalRecord::Fold {
            worker: 2,
            seq: 2,
            slots: vec![1, 3],
            fold: Box::new(PartialFold::default()),
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(header.encode().unwrap().as_bytes());
        bytes.extend_from_slice(fold_a.encode().unwrap().as_bytes());
        let valid = bytes.len() as u64;
        // Torn tail: half of a valid record, no newline needed to trip.
        let torn = fold_b.encode().unwrap();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let state = JournalState::load(&path).unwrap();
        assert_eq!(state.valid_bytes, valid);
        assert_eq!(state.done, [0u64, 2, 4].into_iter().collect());
        assert_eq!(state.folds.len(), 1);
        assert_eq!(state.next_worker, 2);
        assert_eq!(state.header.shard, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_non_journals() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a.journal");
        std::fs::write(&path, b"hello world\n").unwrap();
        assert!(matches!(
            JournalState::load(&path),
            Err(CheckpointError::Header { .. })
        ));
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            JournalState::load(&path),
            Err(CheckpointError::Header { .. })
        ));
        assert!(matches!(
            JournalState::load(&dir.join("missing.journal")),
            Err(CheckpointError::Io { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_a_different_grid_or_shard() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.journal");
        let identity: SinkWrap<'_> = &|s| s;
        let session =
            CheckpointSession::create(&path, fingerprint(), None, 512, false, identity).unwrap();
        drop(session);
        let mut other = fingerprint();
        other.trials = 99;
        assert!(matches!(
            CheckpointSession::resume(&path, &other, None, 512, false, identity),
            Err(CheckpointError::GridMismatch { .. })
        ));
        assert!(matches!(
            CheckpointSession::resume(
                &path,
                &fingerprint(),
                Some(Shard { index: 0, count: 2 }),
                512,
                false,
                identity
            ),
            Err(CheckpointError::GridMismatch { .. })
        ));
        let ok =
            CheckpointSession::resume(&path, &fingerprint(), None, 512, false, identity).unwrap();
        assert_eq!(ok.resumed_slots(), 0);
        assert_eq!(ok.first_worker, 1);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(sidecar_path(&path)).ok();
    }

    #[test]
    fn writer_fails_soft_on_io_errors() {
        struct BrokenSink {
            appends: u64,
        }
        impl JournalSink for BrokenSink {
            fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
                self.appends += 1;
                Err(std::io::Error::other("disk on fire"))
            }
            fn sync(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let writer = CheckpointWriter::new(Box::new(BrokenSink { appends: 0 }), None);
        let fold =
            JournalRecord::Fold { worker: 1, seq: 1, slots: vec![0], fold: Box::default() };
        writer.append_batch("42 x line\n", 1, &fold);
        writer.append_batch("42 x line\n", 1, &fold);
        let counters = writer.counters();
        assert_eq!(counters.write_errors, 1, "first error latches");
        assert_eq!(counters.slots, 0);
        assert_eq!(counters.folds, 0);
        assert_eq!(counters.bytes, 0);
    }

    #[test]
    fn create_then_resume_round_trips_fold_state() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.journal");
        let identity: SinkWrap<'_> = &|s| s;
        let session =
            CheckpointSession::create(&path, fingerprint(), None, 512, true, identity).unwrap();
        let mut buf = SlotBuffer::default();
        session.record_slot(&mut buf, 1, 1, 3, 0xabcd);
        session.record_fold(&mut buf, 1, 2, vec![3], &PartialFold::default());
        assert!(buf.lines.is_empty(), "fold flushes the slot buffer");
        let counters = session.writer.counters();
        assert_eq!((counters.slots, counters.folds), (1, 1));
        assert!(counters.syncs >= 1);
        drop(session);
        // Slot forensics land in the sidecar, not the fsync'd journal.
        let journal = std::fs::read_to_string(&path).unwrap();
        assert!(!journal.contains("journal/slot"), "journal holds header + folds only");
        let sidecar = std::fs::read_to_string(sidecar_path(&path)).unwrap();
        assert!(sidecar.contains("journal/header"), "sidecar is self-identifying");
        assert!(sidecar.contains("journal/slot"), "sidecar holds the slot records");
        let resumed =
            CheckpointSession::resume(&path, &fingerprint(), None, 512, true, identity).unwrap();
        assert!(resumed.is_done(3));
        assert!(!resumed.is_done(4));
        assert_eq!(resumed.resumed_slots(), 1);
        assert_eq!(resumed.recovered.len(), 1);
        assert_eq!(resumed.first_worker, 2);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(sidecar_path(&path)).unwrap();
    }

    #[test]
    fn slot_forensics_are_opt_in() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-optin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("default.journal");
        let identity: SinkWrap<'_> = &|s| s;
        let session =
            CheckpointSession::create(&path, fingerprint(), None, 512, false, identity).unwrap();
        let mut buf = SlotBuffer::default();
        session.record_slot(&mut buf, 1, 1, 3, 0xabcd);
        assert!(buf.lines.is_empty(), "slot recording is off by default");
        session.record_fold(&mut buf, 1, 2, vec![3], &PartialFold::default());
        let counters = session.writer.counters();
        assert_eq!((counters.slots, counters.folds), (0, 1));
        drop(session);
        assert!(!sidecar_path(&path).exists(), "no sidecar unless requested");
        let resumed =
            CheckpointSession::resume(&path, &fingerprint(), None, 512, false, identity).unwrap();
        assert!(resumed.is_done(3), "fold durability is unaffected");
        assert!(!sidecar_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
