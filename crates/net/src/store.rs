//! Durable, history-capable retention for the broker: a log-structured
//! on-disk store of `Deliver` frame bodies.
//!
//! # Why persistence costs no trust
//!
//! Everything the broker retains is ciphertext-plus-public-values by the
//! paper's construction, so writing it to disk changes nothing in the
//! threat model: a stolen log yields exactly what a wire tap yields. The
//! store therefore needs no encryption at rest beyond what the containers
//! already carry — durability is free of new assumptions.
//!
//! # Log format
//!
//! The log is a flat append-only file of checksummed, length-framed
//! records:
//!
//! ```text
//! magic "PBL1" ‖ payload_len u32 ‖ crc32 u32 ‖ payload
//! payload = doc_name (u32-prefixed utf8) ‖ epoch u64 ‖ deliver_body
//! ```
//!
//! `deliver_body` is the *pre-framed* `Deliver` frame body the broker
//! fans out (`magic ‖ version ‖ kind ‖ container bytes`), so replay after
//! recovery is a pointer clone — no re-encoding, same as the in-memory
//! path. All integers are big-endian; the CRC32 (IEEE) covers the payload.
//!
//! # Recovery
//!
//! [`RetentionStore::open`] scans the log from the start and stops at the
//! first record that fails any check (short header, bad magic, oversized
//! length, short payload, checksum mismatch, malformed payload, or a body
//! that does not strictly decode as a `Deliver` of the named document and
//! epoch). Everything before that point — the longest valid prefix — is
//! recovered; the torn tail is truncated off so subsequent appends land on
//! a clean boundary. Recovery never panics on any file content.
//!
//! # Durability spectrum
//!
//! [`FsyncPolicy`] picks the crash-safety / latency trade-off per broker:
//! `PerPublish` fsyncs before the publish is acknowledged (an acked
//! publish survives power loss), `Interval` bounds the loss window, `Off`
//! survives process crashes (the OS page cache holds the tail) but not
//! power loss. A *graceful* shutdown loses nothing under any policy.
//!
//! # Compaction
//!
//! Only the newest `history_depth` epochs per document are live; older
//! records are garbage the log accumulates. When the log exceeds its
//! configured cap (and has at least doubled since the last rewrite, so a
//! live set larger than the cap cannot thrash), the store rewrites the
//! live records to a temporary file, fsyncs it and atomically renames it
//! over the log. A crash mid-compaction leaves the old log intact; the
//! leftover temp file is deleted on the next open.

use crate::error::NetError;
use crate::frame::{ConfigSummary, Frame, CONTAINER_OFFSET, MAX_FRAME_LEN};
use pbcd_docs::wire::{get_fixed, get_str, get_u32, get_u64, put_str, WireError};
use pbcd_telemetry::{Histogram, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Leading bytes of every log record.
pub const RECORD_MAGIC: [u8; 4] = *b"PBL1";
/// Fixed header: magic ‖ payload_len u32 ‖ crc32 u32.
pub const RECORD_HEADER_LEN: usize = 12;
/// Upper bound on a record payload: a full-size frame body plus the
/// document-name framing — anything larger is corruption by construction.
pub const MAX_RECORD_PAYLOAD: usize = MAX_FRAME_LEN + 1024;
/// Read-buffer size for the recovery scan: wide enough that a log of
/// small records costs a syscall per quarter-megabyte, not per record.
const RECOVERY_BUF_BYTES: usize = 256 * 1024;

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync: appends ride the OS page cache. Survives broker
    /// *process* crashes and graceful shutdowns; an OS crash or power
    /// loss may lose the unsynced tail (recovery then truncates to the
    /// longest valid prefix — the store stays consistent, just older).
    Off,
    /// Fsync before every publish acknowledgement: an acked publish is on
    /// stable storage. The slowest and safest mode.
    PerPublish,
    /// Fsync at most once per interval: bounds the power-loss window
    /// without paying an fsync per publish.
    Interval(Duration),
}

/// Why a log record failed to decode. Decoding is **total**: any byte
/// sequence yields a record or one of these — never a panic — and a
/// checksum mismatch can never surface a wrong container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends before the header or the announced payload does.
    Truncated,
    /// The record does not start with [`RECORD_MAGIC`].
    BadMagic,
    /// The announced payload length exceeds [`MAX_RECORD_PAYLOAD`].
    Oversized,
    /// The CRC32 over the payload does not match the header.
    BadChecksum,
    /// The payload's internal structure is malformed.
    Payload(WireError),
}

impl core::fmt::Display for RecordError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated record"),
            Self::BadMagic => write!(f, "bad record magic"),
            Self::Oversized => write!(f, "oversized record payload"),
            Self::BadChecksum => write!(f, "record checksum mismatch"),
            Self::Payload(e) => write!(f, "malformed record payload: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One decoded log record: the retained document name, its epoch, and the
/// pre-framed `Deliver` body that was fanned out for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Document name the container was published under.
    pub document: String,
    /// Rekey epoch of the container.
    pub epoch: u64,
    /// The pre-framed `Deliver` frame body (container bytes start at
    /// [`CONTAINER_OFFSET`]).
    pub deliver_body: Vec<u8>,
}

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after byte `b`
/// and `k` zero bytes, i.e. `8 * (k + 1)` shifts of the reflected polynomial.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        let mut c = if k == 0 { b as u32 } else { tables[k - 1][b] };
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        tables[k][b] = c;
        i += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3) over `data` — the per-record checksum — eight bytes a
/// step: each is looked up in the table for its distance from the group's end.
pub fn crc32(data: &[u8]) -> u32 {
    let mut groups = data.chunks_exact(8);
    let crc = groups.by_ref().fold(0xFFFF_FFFFu32, |crc, group| {
        let x = u64::from_le_bytes(group.try_into().expect("chunk of 8")) ^ u64::from(crc);
        let lookup = |k: usize| CRC_TABLES[7 - k][(x >> (8 * k)) as u8 as usize];
        (0..8).fold(0, |acc, k| acc ^ lookup(k))
    });
    !groups.remainder().iter().fold(crc, |crc, &b| {
        CRC_TABLES[0][(crc as u8 ^ b) as usize] ^ (crc >> 8)
    })
}

/// Encodes one log record (header + checksummed payload). Fails — instead
/// of panicking — on an oversized document name or body.
pub fn encode_record(
    document: &str,
    epoch: u64,
    deliver_body: &[u8],
) -> Result<Vec<u8>, WireError> {
    // One buffer: length and checksum are filled in once the payload is in.
    let capacity = RECORD_HEADER_LEN + 4 + document.len() + 8 + deliver_body.len();
    let mut record = Vec::with_capacity(capacity);
    record.extend_from_slice(&RECORD_MAGIC);
    record.extend_from_slice(&[0; RECORD_HEADER_LEN - 4]);
    put_str(&mut record, document)?;
    record.extend_from_slice(&epoch.to_be_bytes());
    record.extend_from_slice(deliver_body);
    let payload_len = record.len() - RECORD_HEADER_LEN;
    if payload_len > MAX_RECORD_PAYLOAD {
        return Err(WireError::FieldTooLong(payload_len));
    }
    let crc = crc32(&record[RECORD_HEADER_LEN..]);
    record[4..8].copy_from_slice(&(payload_len as u32).to_be_bytes());
    record[8..12].copy_from_slice(&crc.to_be_bytes());
    Ok(record)
}

/// Strict, total decode of one record from the front of `buf`; returns the
/// record and how many bytes it consumed. See [`RecordError`] for the
/// failure taxonomy — truncation and corruption yield typed errors, never
/// a panic.
pub fn decode_record(buf: &[u8]) -> Result<(StoredRecord, usize), RecordError> {
    // Reading from a slice cannot fail, so only the inner result is real.
    read_record(&mut { buf }).unwrap_or(Err(RecordError::Truncated))
}

/// Reads and verifies one record from `r` — the one record parser, behind
/// both [`decode_record`] and recovery. The outer `Err` is a genuine I/O
/// error only; every content problem is the inner [`RecordError`].
fn read_record(r: &mut impl Read) -> io::Result<Result<(StoredRecord, usize), RecordError>> {
    let header = read_up_to(r, RECORD_HEADER_LEN)?;
    let mut h = header.as_slice();
    let (Ok(magic), Ok(payload_len), Ok(crc)) =
        (get_fixed::<4>(&mut h), get_u32(&mut h), get_u32(&mut h))
    else {
        return Ok(Err(RecordError::Truncated));
    };
    if magic != RECORD_MAGIC {
        return Ok(Err(RecordError::BadMagic));
    }
    let payload_len = payload_len as usize;
    if payload_len > MAX_RECORD_PAYLOAD {
        return Ok(Err(RecordError::Oversized));
    }
    let payload = read_up_to(r, payload_len)?;
    if payload.len() < payload_len {
        return Ok(Err(RecordError::Truncated));
    }
    if crc32(&payload) != crc {
        return Ok(Err(RecordError::BadChecksum));
    }
    Ok(parse_payload(payload).map(|record| (record, RECORD_HEADER_LEN + payload_len)))
}

/// Reads `n` bytes, fewer only if the input ends first.
fn read_up_to(r: &mut impl Read, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(n);
    r.take(n as u64).read_to_end(&mut buf)?;
    Ok(buf)
}

fn parse_payload(mut payload: Vec<u8>) -> Result<StoredRecord, RecordError> {
    let mut buf = payload.as_slice();
    let document = get_str(&mut buf).map_err(RecordError::Payload)?;
    let epoch = get_u64(&mut buf).map_err(RecordError::Payload)?;
    // The rest of the payload *is* the deliver body; it must at least hold
    // the frame header the broker always writes.
    if buf.len() < CONTAINER_OFFSET {
        return Err(RecordError::Payload(WireError::Truncated));
    }
    // Slide the body to the front of the allocation we already own
    // instead of copying it out — recovery replays every retained byte
    // through here, so the copy it saves is per-record.
    let offset = payload.len() - buf.len();
    payload.drain(..offset);
    Ok(StoredRecord {
        document,
        epoch,
        deliver_body: payload,
    })
}

/// What [`RetentionStore::open`] found in the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records that decoded, verified and were applied.
    pub records_recovered: u64,
    /// Bytes truncated off the tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// Distinct documents in the recovered retained set.
    pub documents: u64,
}

/// One document's retained history, oldest epoch first.
struct DocHistory {
    /// `(epoch, pre-framed Deliver body)`, strictly increasing epochs.
    epochs: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Public summary of the *newest* retained container.
    summary: ConfigSummary,
}

struct LogBackend {
    path: PathBuf,
    file: File,
    log_bytes: u64,
    max_log_bytes: u64,
    fsync: FsyncPolicy,
    last_sync: Instant,
    /// Log size right after the last compaction; the next one only fires
    /// once the log has doubled past it (anti-thrash when the live set
    /// itself exceeds the cap).
    compaction_floor: u64,
}

impl LogBackend {
    /// Syncs per the configured policy, timing the actual `sync_data`
    /// calls (a `maybe_sync` that elects not to sync records nothing).
    fn maybe_sync(&mut self, fsync_ns: Option<&Histogram>) -> io::Result<()> {
        match self.fsync {
            FsyncPolicy::Off => Ok(()),
            FsyncPolicy::PerPublish => timed_sync(&self.file, fsync_ns),
            FsyncPolicy::Interval(every) => {
                if self.last_sync.elapsed() >= every {
                    timed_sync(&self.file, fsync_ns)?;
                    self.last_sync = Instant::now();
                }
                Ok(())
            }
        }
    }
}

fn timed_sync(file: &File, fsync_ns: Option<&Histogram>) -> io::Result<()> {
    let start = Instant::now();
    file.sync_data()?;
    if let Some(h) = fsync_ns {
        h.record_since(start);
    }
    Ok(())
}

/// Pre-resolved registry handles for the store's timing points. The broker
/// attaches these after `open`/`in_memory` (keeping the store's public
/// constructors signature-stable); a store without them records nothing.
pub(crate) struct StoreTelemetry {
    append_ns: Histogram,
    fsync_ns: Histogram,
    compaction_ns: Histogram,
    recovery_scan_ns: Histogram,
}

impl StoreTelemetry {
    /// Registers the store's metric names in `registry` (eagerly, so a
    /// scrape shows them even before the first append).
    pub(crate) fn new(registry: &Registry) -> Self {
        StoreTelemetry {
            append_ns: registry.histogram("store_append_ns"),
            fsync_ns: registry.histogram("store_fsync_ns"),
            compaction_ns: registry.histogram("store_compaction_ns"),
            recovery_scan_ns: registry.histogram("store_recovery_scan_ns"),
        }
    }
}

fn compact_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".compact");
    PathBuf::from(name)
}

/// The broker's retention state: per-document bounded epoch history held
/// in memory (pre-framed bodies, `Arc`-shared with the fan-out queues),
/// optionally backed by the append-only log described in the module docs.
///
/// Not internally synchronized — the broker owns it inside its state lock.
pub struct RetentionStore {
    history_depth: usize,
    docs: BTreeMap<String, DocHistory>,
    /// Total retained *container* bytes across every held epoch (the
    /// broker's byte-cap currency; excludes the 4-byte frame headers).
    retained_bytes: usize,
    log: Option<LogBackend>,
    recovery: RecoveryReport,
    compactions: u64,
    /// Wall time the recovery scan took at `open` (zero for in-memory
    /// stores); replayed into the telemetry histogram on attach.
    recovery_elapsed: Duration,
    telemetry: Option<StoreTelemetry>,
}

impl RetentionStore {
    /// A purely in-memory store (the pre-durability broker behaviour,
    /// generalized to `history_depth` epochs per document).
    pub fn in_memory(history_depth: usize) -> Self {
        Self {
            history_depth: history_depth.max(1),
            docs: BTreeMap::new(),
            retained_bytes: 0,
            log: None,
            recovery: RecoveryReport::default(),
            compactions: 0,
            recovery_elapsed: Duration::ZERO,
            telemetry: None,
        }
    }

    /// Attaches telemetry handles. The recovery-scan duration observed at
    /// `open` is recorded into the fresh histogram here, so the metric
    /// survives the attach-after-open construction order.
    pub(crate) fn attach_telemetry(&mut self, telemetry: StoreTelemetry) {
        if self.log.is_some() {
            telemetry
                .recovery_scan_ns
                .record_duration(self.recovery_elapsed);
        }
        self.telemetry = Some(telemetry);
    }

    /// Opens (or creates) the log at `path`, recovers the longest valid
    /// prefix into memory, truncates any torn tail, and returns the store
    /// positioned to append. A leftover temp file from an interrupted
    /// compaction is discarded (the main log is always intact).
    pub fn open(
        path: impl Into<PathBuf>,
        history_depth: usize,
        max_log_bytes: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<Self> {
        let path = path.into();
        let _ = std::fs::remove_file(compact_path(&path));
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut store = Self::in_memory(history_depth);
        let scan_start = Instant::now();
        let file_len = file.metadata()?.len();
        file.seek(SeekFrom::Start(0))?;
        // A wide buffer keeps the scan syscall-bound per *chunk*, not per
        // record — recovery reads the whole log exactly once, so the
        // buffer is cheap and short-lived.
        let mut reader = BufReader::with_capacity(RECOVERY_BUF_BYTES, &file);
        let mut good_offset = 0u64;
        // A clean end of file reads as a truncated record too: either way
        // the scan stops and everything past `good_offset` is cut off.
        while let Ok((record, consumed)) = read_record(&mut reader)? {
            let Some((summary, body)) = deliver_summary(record) else {
                // CRC-valid but semantically wrong (not a Deliver of the
                // named doc/epoch): treat as corruption — the prefix before
                // it is still the longest prefix that is *valid*, not
                // merely well-framed.
                break;
            };
            store.apply(summary, body);
            store.recovery.records_recovered += 1;
            good_offset += consumed as u64;
        }
        drop(reader);
        if good_offset < file_len {
            store.recovery.truncated_bytes = file_len - good_offset;
            file.set_len(good_offset)?;
        }
        store.recovery.documents = store.docs.len() as u64;
        store.recovery_elapsed = scan_start.elapsed();
        store.log = Some(LogBackend {
            path,
            file,
            log_bytes: good_offset,
            max_log_bytes,
            fsync,
            last_sync: Instant::now(),
            compaction_floor: 0,
        });
        Ok(store)
    }

    /// What recovery found (all zeroes for in-memory stores and fresh
    /// logs).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Newest retained epoch for `document`, if any — the broker's
    /// stale-epoch guard reads this, which is what keeps epoch
    /// monotonicity (and the `u64::MAX` wedge closure) intact across a
    /// restart.
    pub fn newest_epoch(&self, document: &str) -> Option<u64> {
        self.docs
            .get(document)
            .and_then(|d| d.epochs.back())
            .map(|(e, _)| *e)
    }

    /// The newest `depth` retained bodies for `document`, **oldest
    /// first** — exactly the order a history replay must be delivered in
    /// so epoch-monotonic subscribers accept every one.
    pub fn history(&self, document: &str, depth: usize) -> Vec<Arc<Vec<u8>>> {
        let Some(doc) = self.docs.get(document) else {
            return Vec::new();
        };
        let skip = doc.epochs.len().saturating_sub(depth.max(1));
        doc.epochs
            .iter()
            .skip(skip)
            .map(|(_, b)| Arc::clone(b))
            .collect()
    }

    /// Replay set for a new subscription: for every document accepted by
    /// `matches`, the newest `depth` bodies oldest-first (documents in
    /// name order).
    pub fn replay(&self, mut matches: impl FnMut(&str) -> bool, depth: usize) -> Vec<Arc<Vec<u8>>> {
        let depth = depth.max(1);
        let mut out = Vec::new();
        for (doc, hist) in &self.docs {
            if !matches(doc) {
                continue;
            }
            let skip = hist.epochs.len().saturating_sub(depth);
            out.extend(hist.epochs.iter().skip(skip).map(|(_, b)| Arc::clone(b)));
        }
        out
    }

    /// The newest retained epoch of every document, in document-name
    /// order — the high-water marks a downstream broker advertises in a
    /// `RelayCatchUp` so its upstream streams only what it is missing.
    pub fn newest_epochs(&self) -> Vec<(String, u64)> {
        self.docs
            .iter()
            .filter_map(|(doc, hist)| hist.epochs.back().map(|(e, _)| (doc.clone(), *e)))
            .collect()
    }

    /// Catch-up stream for a newly attached (or resyncing) peer: for every
    /// document, the newest `depth` retained records whose epoch is
    /// **strictly newer** than the peer's advertised high-water mark
    /// (`known`, from its `RelayCatchUp`; absent documents get the full
    /// depth). Ordering is oldest-first per document, documents in name
    /// order — the same order the peer's own per-hop monotonicity guard
    /// accepts without suppression. Entries are
    /// `(document, epoch, pre-framed Deliver body)` pointer clones off the
    /// retention index; nothing is re-read from disk or re-encoded.
    pub fn catch_up(
        &self,
        known: &BTreeMap<String, u64>,
        depth: usize,
    ) -> Vec<(String, u64, Arc<Vec<u8>>)> {
        let depth = depth.max(1);
        let mut out = Vec::new();
        for (doc, hist) in &self.docs {
            let floor = known.get(doc).copied();
            let skip = hist.epochs.len().saturating_sub(depth);
            out.extend(
                hist.epochs
                    .iter()
                    .skip(skip)
                    .filter(|(epoch, _)| floor.map_or(true, |f| *epoch > f))
                    .map(|(epoch, body)| (doc.clone(), *epoch, Arc::clone(body))),
            );
        }
        out
    }

    /// Public summaries of the newest retained container per document, in
    /// document-name order.
    pub fn summaries(&self) -> Vec<ConfigSummary> {
        self.docs.values().map(|d| d.summary.clone()).collect()
    }

    /// Number of distinct retained documents.
    pub fn document_count(&self) -> usize {
        self.docs.len()
    }

    /// Total retained container bytes across all held epochs.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Current log file size (0 for in-memory stores).
    pub fn log_bytes(&self) -> u64 {
        self.log.as_ref().map_or(0, |l| l.log_bytes)
    }

    /// How many compactions have rewritten the log since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// What [`Self::retained_bytes`] would be after retaining `epoch` of
    /// `document` with `container_len` container bytes — the broker's
    /// byte-cap check runs on this *before* mutating anything.
    pub fn projected_bytes(&self, document: &str, epoch: u64, container_len: usize) -> usize {
        let mut total = self.retained_bytes + container_len;
        if let Some(doc) = self.docs.get(document) {
            if let Some((newest, body)) = doc.epochs.back() {
                if *newest == epoch {
                    // Idempotent re-publish replaces the newest entry.
                    return total - (body.len() - CONTAINER_OFFSET);
                }
            }
            if doc.epochs.len() >= self.history_depth {
                if let Some((_, oldest)) = doc.epochs.front() {
                    total -= oldest.len() - CONTAINER_OFFSET;
                }
            }
        }
        total
    }

    /// Retains `deliver` (the pre-framed `Deliver` body summarized by
    /// `summary`) as the newest epoch of its document: appends it to the
    /// log (when backed) under the configured fsync policy, installs it in
    /// the in-memory history (evicting beyond `history_depth`), and
    /// compacts the log if it outgrew its cap.
    ///
    /// On an I/O failure nothing is retained in memory and the log is
    /// rolled back to its pre-append length, so a torn append can never
    /// shadow later successful records at recovery.
    ///
    /// The caller guarantees epoch ordering (the broker's stale-epoch
    /// guard): `summary.epoch` is ≥ every epoch already held for the
    /// document, with equality meaning an idempotent replace.
    pub fn retain(&mut self, summary: ConfigSummary, deliver: Arc<Vec<u8>>) -> io::Result<()> {
        debug_assert!(deliver.len() >= CONTAINER_OFFSET);
        let start = Instant::now();
        let fsync_ns = self.telemetry.as_ref().map(|t| t.fsync_ns.clone());
        if let Some(log) = &mut self.log {
            let record = encode_record(&summary.document_name, summary.epoch, &deliver)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("encode: {e}")))?;
            if let Err(e) = log.file.write_all(&record) {
                let _ = log.file.set_len(log.log_bytes);
                return Err(e);
            }
            log.log_bytes += record.len() as u64;
            log.maybe_sync(fsync_ns.as_ref())?;
        }
        self.apply(summary, deliver);
        // Append time covers the whole durability point (encode, log
        // write, policy fsync, in-memory install) — for an in-memory
        // store it is just the install. Compaction is timed separately.
        if let Some(t) = &self.telemetry {
            t.append_ns.record_since(start);
        }
        self.maybe_compact()
    }

    /// Flushes the log to stable storage regardless of fsync policy (used
    /// on graceful shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        match &mut self.log {
            Some(log) => log.file.sync_data(),
            None => Ok(()),
        }
    }

    /// In-memory installation shared by the publish path and recovery.
    fn apply(&mut self, summary: ConfigSummary, deliver: Arc<Vec<u8>>) {
        let container_len = deliver.len() - CONTAINER_OFFSET;
        let epoch = summary.epoch;
        let doc = self
            .docs
            .entry(summary.document_name.clone())
            .or_insert_with(|| DocHistory {
                epochs: VecDeque::new(),
                summary: summary.clone(),
            });
        match doc.epochs.back_mut() {
            Some((newest, body)) if *newest == epoch => {
                // Idempotent re-publish of the newest epoch: replace.
                self.retained_bytes -= body.len() - CONTAINER_OFFSET;
                *body = deliver;
            }
            Some((newest, _)) if *newest > epoch => {
                // Defensive only: the broker's stale-epoch guard rejects
                // these before retention, and recovery replays a log whose
                // per-document epochs are non-decreasing by construction.
                return;
            }
            _ => doc.epochs.push_back((epoch, deliver)),
        }
        doc.summary = summary;
        self.retained_bytes += container_len;
        while doc.epochs.len() > self.history_depth {
            if let Some((_, evicted)) = doc.epochs.pop_front() {
                self.retained_bytes -= evicted.len() - CONTAINER_OFFSET;
            }
        }
    }

    fn maybe_compact(&mut self) -> io::Result<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        if log.log_bytes <= log.max_log_bytes
            || log.log_bytes < log.compaction_floor.saturating_mul(2)
        {
            return Ok(());
        }
        self.compact()
    }

    /// Rewrites the log to hold exactly the live records (every in-memory
    /// history entry, oldest-first per document): temp file, fsync,
    /// atomic rename, reopen for append.
    fn compact(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let tmp_path = compact_path(&log.path);
        let mut tmp = File::create(&tmp_path)?;
        let mut written = 0u64;
        for (name, hist) in &self.docs {
            for (epoch, body) in &hist.epochs {
                let record = encode_record(name, *epoch, body).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidInput, format!("encode: {e}"))
                })?;
                tmp.write_all(&record)?;
                written += record.len() as u64;
            }
        }
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &log.path)?;
        log.file = OpenOptions::new().read(true).append(true).open(&log.path)?;
        log.log_bytes = written;
        log.compaction_floor = written;
        self.compactions += 1;
        if let Some(t) = &self.telemetry {
            t.compaction_ns.record_since(start);
        }
        Ok(())
    }
}

/// Validates that a recovered record's body is a strict `Deliver` frame of
/// the document and epoch the record header names, and rebuilds the public
/// summary from it. `None` marks the record corrupt.
fn deliver_summary(record: StoredRecord) -> Option<(ConfigSummary, Arc<Vec<u8>>)> {
    let Ok(Frame::Deliver(container)) = Frame::decode(&record.deliver_body) else {
        return None;
    };
    if container.document_name != record.document || container.epoch != record.epoch {
        return None;
    }
    let summary = ConfigSummary {
        document_name: container.document_name.clone(),
        epoch: container.epoch,
        config_ids: container.groups.iter().map(|g| g.config_id).collect(),
        size_bytes: (record.deliver_body.len() - CONTAINER_OFFSET) as u64,
    };
    // The record is consumed, so the body Vec moves into its Arc — no
    // copy on the recovery path.
    Some((summary, Arc::new(record.deliver_body)))
}

impl From<RecordError> for NetError {
    fn from(e: RecordError) -> Self {
        NetError::Protocol(format!("retention log: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::deliver_body;
    use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};

    fn body(doc: &str, epoch: u64) -> Vec<u8> {
        let container = BroadcastContainer {
            epoch,
            document_name: doc.to_string(),
            skeleton_xml: "<r><pbcd-segment id=\"0\"/></r>".into(),
            groups: vec![EncryptedGroup {
                config_id: 0,
                key_info: vec![0xAB; 16],
                segments: vec![EncryptedSegment {
                    segment_id: 0,
                    tag: "Record".into(),
                    ciphertext: vec![epoch as u8; 64],
                }],
            }],
        };
        deliver_body(&container.encode().unwrap())
    }

    fn summary(doc: &str, epoch: u64, body: &[u8]) -> ConfigSummary {
        ConfigSummary {
            document_name: doc.into(),
            epoch,
            config_ids: vec![0],
            size_bytes: (body.len() - CONTAINER_OFFSET) as u64,
        }
    }

    #[test]
    fn record_roundtrip() {
        let b = body("doc.xml", 3);
        let enc = encode_record("doc.xml", 3, &b).unwrap();
        let (rec, consumed) = decode_record(&enc).unwrap();
        assert_eq!(consumed, enc.len());
        assert_eq!(rec.document, "doc.xml");
        assert_eq!(rec.epoch, 3);
        assert_eq!(rec.deliver_body, b);
    }

    #[test]
    fn record_decode_is_strict() {
        let enc = encode_record("doc.xml", 3, &body("doc.xml", 3)).unwrap();
        for cut in 0..enc.len() {
            assert!(matches!(
                decode_record(&enc[..cut]),
                Err(RecordError::Truncated)
            ));
        }
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_record(&bad).unwrap_err(), RecordError::BadMagic);
        let mut bad = enc.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(decode_record(&bad).unwrap_err(), RecordError::BadChecksum);
    }

    #[test]
    fn history_evicts_beyond_depth_and_counts_bytes() {
        let mut store = RetentionStore::in_memory(2);
        for epoch in 1..=4u64 {
            let b = body("doc.xml", epoch);
            let s = summary("doc.xml", epoch, &b);
            store.retain(s, Arc::new(b)).unwrap();
        }
        assert_eq!(store.newest_epoch("doc.xml"), Some(4));
        let hist = store.history("doc.xml", 8);
        assert_eq!(hist.len(), 2, "depth bounds the history");
        let expected: usize = hist.iter().map(|b| b.len() - CONTAINER_OFFSET).sum();
        assert_eq!(store.retained_bytes(), expected);
        // Oldest-first ordering.
        let epochs: Vec<u64> = hist
            .iter()
            .map(|b| match Frame::decode(b).unwrap() {
                Frame::Deliver(c) => c.epoch,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(epochs, vec![3, 4]);
    }

    #[test]
    fn catch_up_streams_only_what_the_peer_is_missing() {
        let mut store = RetentionStore::in_memory(3);
        for doc in ["a.xml", "b.xml"] {
            for epoch in 1..=4u64 {
                let b = body(doc, epoch);
                let s = summary(doc, epoch, &b);
                store.retain(s, Arc::new(b)).unwrap();
            }
        }
        // Peer knows a.xml up to epoch 3 and has never seen b.xml.
        let known = BTreeMap::from([("a.xml".to_string(), 3u64)]);
        let stream = store.catch_up(&known, 8);
        let keys: Vec<(&str, u64)> = stream.iter().map(|(d, e, _)| (d.as_str(), *e)).collect();
        // a.xml: only epoch 4; b.xml: the full retained depth, oldest
        // first (epoch 1 was evicted by depth 3).
        assert_eq!(
            keys,
            vec![("a.xml", 4), ("b.xml", 2), ("b.xml", 3), ("b.xml", 4)]
        );
        // A fully caught-up peer gets nothing.
        let known = BTreeMap::from([("a.xml".to_string(), 4u64), ("b.xml".to_string(), 9u64)]);
        assert!(store.catch_up(&known, 8).is_empty());
        // Depth caps the per-document stream at the newest entries.
        let shallow = store.catch_up(&BTreeMap::new(), 1);
        let keys: Vec<(&str, u64)> = shallow.iter().map(|(d, e, _)| (d.as_str(), *e)).collect();
        assert_eq!(keys, vec![("a.xml", 4), ("b.xml", 4)]);
    }

    #[test]
    fn equal_epoch_retain_replaces_instead_of_duplicating() {
        let mut store = RetentionStore::in_memory(4);
        let b = body("doc.xml", 7);
        store
            .retain(summary("doc.xml", 7, &b), Arc::new(b.clone()))
            .unwrap();
        store
            .retain(summary("doc.xml", 7, &b), Arc::new(b.clone()))
            .unwrap();
        assert_eq!(store.history("doc.xml", 8).len(), 1);
        assert_eq!(store.retained_bytes(), b.len() - CONTAINER_OFFSET);
        assert_eq!(
            store.projected_bytes("doc.xml", 7, b.len() - CONTAINER_OFFSET),
            b.len() - CONTAINER_OFFSET
        );
    }
}
