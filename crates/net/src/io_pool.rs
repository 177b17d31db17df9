//! The broker's event-driven I/O plane: a sharded **writer pool** that
//! services every per-subscriber bounded queue with M threads, and a
//! sharded **reader pool** that multiplexes idle subscriber connections
//! onto R threads — so an idle subscription holds a socket and a queue,
//! not two thread stacks.
//!
//! # Writer pool
//!
//! Each registered connection ("slot") is hashed to one of M shards by
//! connection id. A shard owns its slots behind one mutex: a bounded
//! `VecDeque` of pre-framed bodies per slot, the slot's socket (in
//! non-blocking mode), and the partial-write cursor of the frame
//! currently on the wire. Enqueues — always performed under the broker
//! state lock — push onto the slot's queue, mark the slot *ready* and
//! wake the shard's condvar. The shard thread drains ready slots
//! round-robin, writing non-blockingly:
//!
//! * a write that would block parks the slot on a short retry list
//!   (re-attempted every millisecond) — the stalled peer holds **only
//!   its own slot**, never the shard thread, so one wedged consumer
//!   cannot delay its shard-mates;
//! * every frame carries an **absolute deadline** from its first write
//!   attempt ([`crate::BrokerConfig::write_timeout`]); a peer that
//!   trickles bytes past it is dropped (`cause="write_failed"`);
//! * at most [`FRAMES_PER_TURN`] frames are written per slot per turn,
//!   so a fast consumer with a deep queue cannot starve the rest of the
//!   shard.
//!
//! **Why ordering survives**: one slot has one queue, drained by exactly
//! one shard thread, and a frame's cursor is completed before the next
//! frame is popped — per-subscriber FIFO is structural. Enqueues still
//! happen under the broker state lock, so the retained-state order of
//! publishes *is* the queue order, replay-before-live included.
//!
//! # Reader pool
//!
//! Subscriber connections are handed off to a reader shard after their
//! first `Subscribe` (the handler thread exits). The shard sweeps its
//! sockets with non-blocking reads through an incremental
//! [`FrameAccum`], passing complete frames to the same `dispatch_frame`
//! the handler threads call; an idle sweep backs off (1 ms → 50 ms) on
//! the shard condvar, which new adoptions and shutdown notify. This is the
//! portable reader-multiplexing equivalent of `poll`/`epoll` — the
//! workspace forbids `unsafe`, so raw FFI readiness APIs are out; the
//! cost is a bounded polling latency on *inbound* control frames from
//! idle subscribers, which trade never sits on the delivery hot path.
//!
//! Publishers and peer links never subscribe, so they keep their
//! dedicated handler threads (publish latency stays syscall-direct);
//! outbound relay link *writers* ride the writer pool as
//! [`SlotKind::RelayLink`] slots.

use crate::broker::{ConnWriter, Shared};
use crate::error::NetError;
use crate::frame::MAX_FRAME_LEN;
use pbcd_telemetry::Gauge;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How soon a slot parked on `WouldBlock` is re-attempted.
const WRITE_RETRY: Duration = Duration::from_millis(1);
/// Frames written per slot per scheduling turn (anti-starvation bound).
const FRAMES_PER_TURN: usize = 8;
/// Frames dispatched per reader connection per sweep (same bound).
const READS_PER_SWEEP: usize = 8;
/// Reader idle back-off range: a sweep that moved no bytes doubles its
/// wait up to the cap; any progress (or an adoption) resets it.
const READER_IDLE_MIN: Duration = Duration::from_millis(1);
const READER_IDLE_MAX: Duration = Duration::from_millis(50);
/// A writer shard with no retries pending parks on its condvar; the
/// timeout is a liveness backstop only (enqueues always notify).
const WRITER_PARK: Duration = Duration::from_secs(1);

/// What a writer-pool slot serves — decides the drop accounting when a
/// write fails or expires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SlotKind {
    /// A subscriber connection: a failed write drops the subscriber
    /// (counted under `cause="write_failed"`).
    Subscriber,
    /// An outbound relay peer link: a failed write closes the link's
    /// socket; the link thread observes the dead connection and
    /// reconnects with backoff + log resync.
    RelayLink,
}

/// One frame queued to a writer-pool slot: pre-framed body bytes,
/// reference-counted so a fan-out of N enqueues N pointers.
pub(crate) enum PoolJob {
    /// A `Deliver` body (counted in `broker_deliveries_total` when the
    /// slot is a subscriber).
    Deliver {
        /// Pre-framed `Deliver` body.
        body: Arc<Vec<u8>>,
        /// Document epoch, for trace events (0 for replays).
        epoch: u64,
        /// Registry timestamp of the enqueue (enqueue→write latency).
        enqueued_ns: u64,
    },
    /// Any other frame owed to the connection (control replies, relay
    /// forwards) — same queue, so nothing interleaves mid-frame.
    Control(Arc<Vec<u8>>),
}

impl PoolJob {
    fn body(&self) -> &Arc<Vec<u8>> {
        match self {
            PoolJob::Deliver { body, .. } => body,
            PoolJob::Control(body) => body,
        }
    }
}

/// Progress of the frame currently being written to a slot's socket:
/// the 4-byte length prefix, then the body, each with a sent offset.
struct WriteCursor {
    head: [u8; 4],
    head_sent: usize,
    body: Arc<Vec<u8>>,
    body_sent: usize,
    /// `(epoch, enqueued_ns)` for `Deliver` jobs, `None` for control.
    meta: Option<(u64, u64)>,
    /// Absolute deadline, armed at the frame's *first* write attempt —
    /// a trickling receiver cannot re-arm it by accepting one byte.
    deadline: Option<Instant>,
}

/// One pooled connection: its socket (non-blocking), bounded job queue
/// and in-flight write cursor.
struct Slot {
    stream: TcpStream,
    kind: SlotKind,
    queue: VecDeque<PoolJob>,
    /// Queue bound (jobs queued + in flight); sized at registration to
    /// `subscriber_queue + replay + 1`.
    capacity: usize,
    /// Shared with the broker's `SubEntry`, whose sum is the queue-depth
    /// gauge.
    depth: Arc<AtomicU64>,
    cursor: Option<WriteCursor>,
    in_ready: bool,
    /// Set while parked after `WouldBlock`; promoted back to ready once
    /// the retry instant passes.
    retry_at: Option<Instant>,
}

impl Slot {
    fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.cursor.is_some())
    }
}

#[derive(Default)]
struct ShardInner {
    slots: BTreeMap<u64, Slot>,
    ready: VecDeque<u64>,
    shutdown: bool,
    /// True while the shard thread is parked on the condvar — lets
    /// enqueuers stamp the notify instant for the wakeup histogram.
    parked: bool,
    notified_at_ns: Option<u64>,
}

impl ShardInner {
    /// Queues `job` on slot `id`; `false` if the slot is gone or full.
    /// An idle slot becomes ready; one already ready, retrying, or
    /// mid-frame keeps its place (FIFO per slot is structural).
    fn push(&mut self, id: u64, job: PoolJob) -> bool {
        let Some(slot) = self.slots.get_mut(&id) else {
            return false;
        };
        if slot.pending() >= slot.capacity {
            return false;
        }
        slot.queue.push_back(job);
        slot.depth.fetch_add(1, Ordering::Relaxed);
        if !slot.in_ready && slot.retry_at.is_none() {
            slot.in_ready = true;
            self.ready.push_back(id);
        }
        true
    }
}

struct WriterShard {
    inner: Mutex<ShardInner>,
    cv: Condvar,
    /// Per-shard queue-depth gauge (`broker_writer_shard_depth{shard}`)
    /// so slow-shard skew is visible in a stats scrape.
    depth_gauge: Gauge,
}

/// The sharded writer pool: M shard threads servicing every pooled
/// connection's bounded queue.
pub(crate) struct WriterPool {
    shards: Vec<Arc<WriterShard>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl WriterPool {
    /// Spawns `threads` shard threads. Gauge names are per-shard; the
    /// pool-size gauge itself is set by the caller.
    pub(crate) fn spawn(shared: &Arc<Shared>, threads: usize) -> std::io::Result<WriterPool> {
        let threads = threads.max(1);
        let mut shards = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let shard = Arc::new(WriterShard {
                inner: Mutex::new(ShardInner::default()),
                cv: Condvar::new(),
                depth_gauge: shared
                    .telemetry
                    .registry
                    .gauge(&format!("broker_writer_shard_depth{{shard=\"{i}\"}}")),
            });
            let t_shared = Arc::clone(shared);
            let t_shard = Arc::clone(&shard);
            let spawned = std::thread::Builder::new()
                .name(format!("pbcd-broker-writer-{i}"))
                .spawn(move || writer_shard_loop(&t_shared, &t_shard));
            match spawned {
                Ok(h) => {
                    handles.push(h);
                    shards.push(shard);
                }
                Err(e) => {
                    // Partial spawn: unwind the shards already running.
                    let partial = WriterPool {
                        shards,
                        threads: Mutex::new(handles),
                    };
                    partial.shutdown();
                    partial.join();
                    return Err(e);
                }
            }
        }
        Ok(WriterPool {
            shards,
            threads: Mutex::new(handles),
        })
    }

    fn shard_for(&self, id: u64) -> &Arc<WriterShard> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Registers a connection with the pool. The stream must already be
    /// in non-blocking mode. Returns `false` once shutdown has begun.
    pub(crate) fn register(
        &self,
        id: u64,
        stream: TcpStream,
        kind: SlotKind,
        capacity: usize,
        depth: Arc<AtomicU64>,
    ) -> bool {
        let shard = self.shard_for(id);
        let mut inner = shard.inner.lock().expect("writer shard");
        if inner.shutdown {
            return false;
        }
        inner.slots.insert(
            id,
            Slot {
                stream,
                kind,
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                depth,
                cursor: None,
                in_ready: false,
                retry_at: None,
            },
        );
        true
    }

    /// Non-blocking bounded enqueue; `false` means the slot is full,
    /// gone, or the pool is shutting down: the connection is beyond
    /// saving and the caller drops it.
    pub(crate) fn enqueue(&self, shared: &Shared, id: u64, job: PoolJob) -> bool {
        if job.body().len() > MAX_FRAME_LEN {
            return false;
        }
        let shard = self.shard_for(id);
        let mut inner = shard.inner.lock().expect("writer shard");
        if inner.shutdown || !inner.push(id, job) {
            return false;
        }
        if inner.parked && inner.notified_at_ns.is_none() {
            inner.notified_at_ns = Some(shared.telemetry.registry.now_ns());
        }
        drop(inner);
        shard.cv.notify_one();
        true
    }

    /// Batched fan-out enqueue: groups `ids` by shard and takes each
    /// shard lock exactly once, pushing one `Deliver` job (an `Arc`
    /// clone of `body`) per subscriber, with one condvar notify per
    /// shard. A publish to N subscribers therefore costs M lock
    /// acquisitions instead of N lock handoffs against the actively
    /// writing shard thread — the difference between linear and
    /// pool-bounded publish-ack latency at 10k-way fan-out. Returns the
    /// number enqueued; subscribers whose queues were full or already
    /// gone land in `overflowed` (same contract as [`Self::enqueue`]).
    pub(crate) fn enqueue_fanout(
        &self,
        shared: &Shared,
        ids: impl Iterator<Item = u64>,
        body: &Arc<Vec<u8>>,
        epoch: u64,
        enqueued_ns: u64,
        overflowed: &mut Vec<u64>,
    ) -> u32 {
        if body.len() > MAX_FRAME_LEN {
            overflowed.extend(ids);
            return 0;
        }
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); self.shards.len()];
        for id in ids {
            by_shard[(id % self.shards.len() as u64) as usize].push(id);
        }
        let mut fanout = 0u32;
        for (shard, ids) in self.shards.iter().zip(by_shard) {
            if ids.is_empty() {
                continue;
            }
            let mut inner = shard.inner.lock().expect("writer shard");
            if inner.shutdown {
                overflowed.extend(ids);
                continue;
            }
            let mut pushed_any = false;
            for id in ids {
                let job = PoolJob::Deliver {
                    body: Arc::clone(body),
                    epoch,
                    enqueued_ns,
                };
                if inner.push(id, job) {
                    fanout += 1;
                    pushed_any = true;
                } else {
                    overflowed.push(id);
                }
            }
            if pushed_any {
                if inner.parked && inner.notified_at_ns.is_none() {
                    inner.notified_at_ns = Some(shared.telemetry.registry.now_ns());
                }
                drop(inner);
                shard.cv.notify_one();
            }
        }
        fanout
    }

    /// Deregisters a connection, reconciling its depth gauge for every
    /// job it never wrote. Idempotent.
    pub(crate) fn remove(&self, id: u64) {
        let shard = self.shard_for(id);
        let mut inner = shard.inner.lock().expect("writer shard");
        if let Some(slot) = inner.slots.remove(&id) {
            slot.depth
                .fetch_sub(slot.pending() as u64, Ordering::Relaxed);
        }
    }

    /// Refreshes the per-shard depth gauges (called from the broker's
    /// snapshot path, under the state lock — state → shard is the one
    /// sanctioned lock order).
    pub(crate) fn set_depth_gauges(&self) {
        for shard in &self.shards {
            let inner = shard.inner.lock().expect("writer shard");
            let depth: u64 = inner.slots.values().map(|s| s.pending() as u64).sum();
            shard.depth_gauge.set(depth);
        }
    }

    /// Flags every shard down, drops every slot (closing its socket dup)
    /// and wakes the shard threads so they exit.
    pub(crate) fn shutdown(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock().expect("writer shard");
            inner.shutdown = true;
            let ids: Vec<u64> = inner.slots.keys().copied().collect();
            for id in ids {
                if let Some(slot) = inner.slots.remove(&id) {
                    slot.depth
                        .fetch_sub(slot.pending() as u64, Ordering::Relaxed);
                    let _ = slot.stream.shutdown(Shutdown::Both);
                }
            }
            inner.ready.clear();
            drop(inner);
            shard.cv.notify_all();
        }
    }

    /// Joins every shard thread. Call after [`Self::shutdown`].
    pub(crate) fn join(&self) {
        let handles = std::mem::take(&mut *self.threads.lock().expect("writer pool threads"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// How one scheduling turn over a slot ended.
enum SlotOutcome {
    /// Queue drained; the slot goes idle until the next enqueue.
    Idle,
    /// Frame budget spent with work remaining; requeue round-robin.
    MoreWork,
    /// Socket buffer full; park on the retry list.
    WouldBlock,
    /// Write failed or the frame deadline expired; drop the slot.
    Dead,
}

fn writer_shard_loop(shared: &Shared, shard: &WriterShard) {
    let mut inner = shard.inner.lock().expect("writer shard");
    loop {
        if inner.shutdown {
            break;
        }
        // Promote slots whose retry instant has passed.
        let now = Instant::now();
        let due: Vec<u64> = inner
            .slots
            .iter()
            .filter(|(_, s)| s.retry_at.is_some_and(|t| t <= now))
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            if let Some(slot) = inner.slots.get_mut(&id) {
                slot.retry_at = None;
                if !slot.in_ready {
                    slot.in_ready = true;
                    inner.ready.push_back(id);
                }
            }
        }
        let Some(id) = inner.ready.pop_front() else {
            // Nothing ready: sleep until the nearest retry (or the park
            // backstop), releasing the lock so enqueues proceed.
            let wait = inner
                .slots
                .values()
                .filter_map(|s| s.retry_at)
                .min()
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(WRITER_PARK)
                .max(Duration::from_micros(100));
            inner.parked = true;
            let (guard, _) = shard
                .cv
                .wait_timeout(inner, wait)
                .expect("writer shard condvar");
            inner = guard;
            inner.parked = false;
            if let Some(ts) = inner.notified_at_ns.take() {
                let woke = shared.telemetry.registry.now_ns().saturating_sub(ts);
                shared.telemetry.record_pool_wakeup(woke);
            }
            continue;
        };
        let outcome = match inner.slots.get_mut(&id) {
            Some(slot) => {
                slot.in_ready = false;
                drive_slot(shared, id, slot)
            }
            None => continue,
        };
        match outcome {
            SlotOutcome::Idle => {}
            SlotOutcome::MoreWork => {
                if let Some(slot) = inner.slots.get_mut(&id) {
                    slot.in_ready = true;
                    inner.ready.push_back(id);
                }
            }
            SlotOutcome::WouldBlock => {
                if let Some(slot) = inner.slots.get_mut(&id) {
                    slot.retry_at = Some(Instant::now() + WRITE_RETRY);
                }
            }
            SlotOutcome::Dead => {
                let kind = if let Some(slot) = inner.slots.remove(&id) {
                    slot.depth
                        .fetch_sub(slot.pending() as u64, Ordering::Relaxed);
                    let _ = slot.stream.shutdown(Shutdown::Both);
                    Some(slot.kind)
                } else {
                    None
                };
                if let Some(kind) = kind {
                    // Drop accounting takes the broker state lock, so it
                    // must run with the shard lock released (state →
                    // shard is the sanctioned nesting, never the
                    // reverse).
                    drop(inner);
                    crate::broker::on_pool_write_failure(shared, id, kind);
                    inner = shard.inner.lock().expect("writer shard");
                }
            }
        }
    }
}

/// Writes up to [`FRAMES_PER_TURN`] frames from one slot's queue,
/// non-blockingly, completing the in-flight cursor before popping the
/// next job (per-slot FIFO).
fn drive_slot(shared: &Shared, id: u64, slot: &mut Slot) -> SlotOutcome {
    for _ in 0..FRAMES_PER_TURN {
        if slot.cursor.is_none() {
            let Some(job) = slot.queue.pop_front() else {
                return SlotOutcome::Idle;
            };
            let (body, meta) = match job {
                PoolJob::Deliver {
                    body,
                    epoch,
                    enqueued_ns,
                } => (body, Some((epoch, enqueued_ns))),
                PoolJob::Control(body) => (body, None),
            };
            slot.cursor = Some(WriteCursor {
                head: (body.len() as u32).to_be_bytes(),
                head_sent: 0,
                body,
                body_sent: 0,
                meta,
                deadline: shared.config.write_timeout.map(|t| Instant::now() + t),
            });
        }
        match pump_cursor(slot) {
            Pump::Done => {
                let cursor = slot.cursor.take().expect("cursor just pumped");
                slot.depth.fetch_sub(1, Ordering::Relaxed);
                if slot.kind == SlotKind::Subscriber {
                    if let Some((epoch, enqueued_ns)) = cursor.meta {
                        let wait_ns = shared
                            .telemetry
                            .registry
                            .now_ns()
                            .saturating_sub(enqueued_ns);
                        shared.telemetry.record_delivery(id, epoch, wait_ns);
                    }
                }
            }
            Pump::WouldBlock => {
                let expired = slot
                    .cursor
                    .as_ref()
                    .and_then(|c| c.deadline)
                    .is_some_and(|d| Instant::now() >= d);
                return if expired {
                    SlotOutcome::Dead
                } else {
                    SlotOutcome::WouldBlock
                };
            }
            Pump::Failed => return SlotOutcome::Dead,
        }
    }
    if slot.queue.is_empty() && slot.cursor.is_none() {
        SlotOutcome::Idle
    } else {
        SlotOutcome::MoreWork
    }
}

enum Pump {
    Done,
    WouldBlock,
    Failed,
}

/// Advances the slot's write cursor as far as the socket accepts.
fn pump_cursor(slot: &mut Slot) -> Pump {
    let cursor = slot.cursor.as_mut().expect("pump without cursor");
    let parts = [
        (&cursor.head[..], &mut cursor.head_sent),
        (&cursor.body[..], &mut cursor.body_sent),
    ];
    for (bytes, sent) in parts {
        while *sent < bytes.len() {
            match (&slot.stream).write(&bytes[*sent..]) {
                Ok(0) => return Pump::Failed,
                Ok(n) => *sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Pump::WouldBlock,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Failed,
            }
        }
    }
    Pump::Done
}

// ---------------------------------------------------------------------
// Reader pool
// ---------------------------------------------------------------------

/// Incremental frame parser over a non-blocking socket: accumulates the
/// 4-byte length prefix, then the body, across however many partial
/// reads it takes. Memory is committed in 64 KiB steps as payload
/// bytes actually arrive (the same hostile-length-prefix posture as
/// [`crate::frame::read_frame_body`]).
pub(crate) struct FrameAccum {
    head: [u8; 4],
    head_read: usize,
    have_len: bool,
    body: Vec<u8>,
    body_read: usize,
    body_len: usize,
}

/// One `poll` step's result.
pub(crate) enum ReadProgress {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// No complete frame yet; the socket would block.
    Pending,
    /// Clean EOF at a frame boundary (mid-frame EOF is an error).
    Closed,
}

impl FrameAccum {
    pub(crate) fn new() -> FrameAccum {
        FrameAccum {
            head: [0; 4],
            head_read: 0,
            have_len: false,
            body: Vec::new(),
            body_read: 0,
            body_len: 0,
        }
    }

    /// Reads as much of the next frame as the socket will give without
    /// blocking.
    pub(crate) fn poll(&mut self, stream: &mut TcpStream) -> Result<ReadProgress, NetError> {
        if !self.have_len {
            while self.head_read < 4 {
                match stream.read(&mut self.head[self.head_read..]) {
                    Ok(0) => {
                        return if self.head_read == 0 {
                            Ok(ReadProgress::Closed)
                        } else {
                            Err(NetError::Closed)
                        };
                    }
                    Ok(n) => self.head_read += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(ReadProgress::Pending)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            let len = u32::from_be_bytes(self.head) as usize;
            // Broker frames carry at least magic ‖ version ‖ kind.
            if !(4..=MAX_FRAME_LEN).contains(&len) {
                return Err(NetError::protocol(format!("bad frame length {len}")));
            }
            self.have_len = true;
            self.body_len = len;
            self.body.clear();
            self.body_read = 0;
        }
        while self.body_read < self.body_len {
            let target = (self.body_read + 64 * 1024).min(self.body_len);
            if self.body.len() < target {
                self.body.resize(target, 0);
            }
            match stream.read(&mut self.body[self.body_read..target]) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.body_read += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(ReadProgress::Pending)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        self.have_len = false;
        self.head_read = 0;
        let mut out = std::mem::take(&mut self.body);
        out.truncate(self.body_len);
        self.body_len = 0;
        self.body_read = 0;
        Ok(ReadProgress::Frame(out))
    }
}

/// One connection adopted by the reader pool: the (non-blocking) read
/// stream and its frame accumulator. The write side is a writer-pool
/// slot under the same connection id.
pub(crate) struct ReaderConn {
    pub(crate) id: u64,
    pub(crate) stream: TcpStream,
    pub(crate) accum: FrameAccum,
    /// Carried over from the handler thread: a connection that completed
    /// a `PeerHello` before handing off keeps its relay authorization.
    pub(crate) peer_id: Option<String>,
}

#[derive(Default)]
struct ReaderInner {
    conns: Vec<ReaderConn>,
    adopted: Vec<ReaderConn>,
    shutdown: bool,
}

struct ReaderShard {
    inner: Mutex<ReaderInner>,
    cv: Condvar,
}

/// The sharded reader pool: R threads sweeping non-blocking subscriber
/// sockets for inbound frames.
pub(crate) struct ReaderPool {
    shards: Vec<Arc<ReaderShard>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_shard: AtomicUsize,
    /// Connections currently held (the `broker_reader_fds` gauge).
    fd_count: Arc<AtomicU64>,
}

impl ReaderPool {
    pub(crate) fn spawn(shared: &Arc<Shared>, threads: usize) -> std::io::Result<ReaderPool> {
        let threads = threads.max(1);
        let fd_count = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let shard = Arc::new(ReaderShard {
                inner: Mutex::new(ReaderInner::default()),
                cv: Condvar::new(),
            });
            let t_shared = Arc::clone(shared);
            let t_shard = Arc::clone(&shard);
            let t_fds = Arc::clone(&fd_count);
            let spawned = std::thread::Builder::new()
                .name(format!("pbcd-broker-reader-{i}"))
                .spawn(move || reader_shard_loop(&t_shared, &t_shard, &t_fds));
            match spawned {
                Ok(h) => {
                    handles.push(h);
                    shards.push(shard);
                }
                Err(e) => {
                    let partial = ReaderPool {
                        shards,
                        threads: Mutex::new(handles),
                        next_shard: AtomicUsize::new(0),
                        fd_count,
                    };
                    partial.shutdown();
                    partial.join();
                    return Err(e);
                }
            }
        }
        Ok(ReaderPool {
            shards,
            threads: Mutex::new(handles),
            next_shard: AtomicUsize::new(0),
            fd_count,
        })
    }

    /// Connections currently multiplexed by the pool.
    pub(crate) fn fd_count(&self) -> u64 {
        self.fd_count.load(Ordering::Relaxed)
    }

    /// Hands a handshaken, subscribed connection to a reader shard
    /// (round-robin). The stream must already be non-blocking. Returns
    /// `false` once shutdown has begun (the caller just drops the conn;
    /// the shutdown sweep owns socket closure).
    pub(crate) fn adopt(&self, conn: ReaderConn) -> bool {
        let idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[idx];
        let mut inner = shard.inner.lock().expect("reader shard");
        if inner.shutdown {
            return false;
        }
        inner.adopted.push(conn);
        self.fd_count.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        shard.cv.notify_one();
        true
    }

    pub(crate) fn shutdown(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock().expect("reader shard");
            inner.shutdown = true;
            drop(inner);
            shard.cv.notify_all();
        }
    }

    pub(crate) fn join(&self) {
        let handles = std::mem::take(&mut *self.threads.lock().expect("reader pool threads"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Whether one serviced connection survives the sweep.
enum ConnStatus {
    Alive { progressed: bool },
    Closed,
}

fn reader_shard_loop(shared: &Arc<Shared>, shard: &ReaderShard, fd_count: &AtomicU64) {
    let mut idle_wait = READER_IDLE_MIN;
    let mut inner = shard.inner.lock().expect("reader shard");
    loop {
        if inner.shutdown {
            break;
        }
        if !inner.adopted.is_empty() {
            let mut adopted = std::mem::take(&mut inner.adopted);
            inner.conns.append(&mut adopted);
        }
        let mut progressed = false;
        let mut i = 0;
        while i < inner.conns.len() {
            let conn = &mut inner.conns[i];
            match service_conn(shared, conn) {
                ConnStatus::Alive { progressed: p } => {
                    progressed |= p;
                    i += 1;
                }
                ConnStatus::Closed => {
                    let conn = inner.conns.swap_remove(i);
                    fd_count.fetch_sub(1, Ordering::Relaxed);
                    // Teardown takes the state lock (reader → state is
                    // fine; nothing takes a reader lock under it).
                    crate::broker::close_connection(shared, conn.id);
                    progressed = true;
                }
            }
        }
        if progressed {
            idle_wait = READER_IDLE_MIN;
            continue;
        }
        idle_wait = (idle_wait * 2).min(READER_IDLE_MAX);
        let (guard, _) = shard
            .cv
            .wait_timeout(inner, idle_wait)
            .expect("reader shard condvar");
        inner = guard;
        if !inner.adopted.is_empty() {
            idle_wait = READER_IDLE_MIN;
        }
    }
    // Shutdown: every adopted conn is also in the broker's connection
    // table, whose shutdown sweep owns the sockets; dropping our dups here
    // releases the pool's fds.
    let drained = inner.conns.len() + inner.adopted.len();
    fd_count.fetch_sub(drained as u64, Ordering::Relaxed);
    inner.conns.clear();
    inner.adopted.clear();
}

/// Reads and dispatches up to [`READS_PER_SWEEP`] frames from one
/// connection.
fn service_conn(shared: &Arc<Shared>, conn: &mut ReaderConn) -> ConnStatus {
    let mut progressed = false;
    for _ in 0..READS_PER_SWEEP {
        match conn.accum.poll(&mut conn.stream) {
            Ok(ReadProgress::Frame(body)) => {
                progressed = true;
                // Reader-pool connections are always past their first
                // Subscribe, so replies travel the writer-pool queue and
                // a further Subscribe is a filter swap, never a handoff.
                // (`FrameFlow::HandOff` only answers a `Direct` writer.)
                let mut writer = ConnWriter::Queued;
                let peer_id = &mut conn.peer_id;
                if crate::broker::dispatch_frame(shared, conn.id, &mut writer, peer_id, body)
                    .is_err()
                {
                    return ConnStatus::Closed;
                }
            }
            Ok(ReadProgress::Pending) => break,
            Ok(ReadProgress::Closed) => return ConnStatus::Closed,
            Err(_) => {
                // Mid-frame EOF, hostile length prefix or socket error:
                // the same isolation as on a handler thread — this
                // connection only.
                if !shared.server.is_stopping() {
                    shared.telemetry.count_rejected_connection();
                }
                return ConnStatus::Closed;
            }
        }
    }
    ConnStatus::Alive { progressed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback pair: a blocking sender and a non-blocking
    /// receiver.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        rx.set_nonblocking(true).expect("nonblocking");
        (tx, rx)
    }

    /// Feeds a frame through a real socket pair in dribs and asserts the
    /// accumulator reassembles it despite WouldBlock gaps.
    #[test]
    fn frame_accum_reassembles_partial_reads() {
        let (mut tx, mut rx) = socket_pair();

        let body = vec![7u8; 10_000];
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);

        let mut accum = FrameAccum::new();
        let mut got = None;
        for chunk in wire.chunks(1_500) {
            // Nothing sent yet of this chunk: the accumulator must park.
            tx.write_all(chunk).expect("write chunk");
            tx.flush().expect("flush");
            // Drain whatever arrived; the frame completes on the last
            // chunk (polling loop tolerates kernel buffering delays).
            for _ in 0..200 {
                match accum.poll(&mut rx).expect("poll") {
                    ReadProgress::Frame(b) => {
                        got = Some(b);
                        break;
                    }
                    ReadProgress::Pending => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ReadProgress::Closed => panic!("unexpected close"),
                }
                if got.is_some() {
                    break;
                }
            }
        }
        assert_eq!(got.expect("frame reassembled"), body);
    }

    #[test]
    fn frame_accum_rejects_hostile_length() {
        let (mut tx, mut rx) = socket_pair();

        tx.write_all(&u32::MAX.to_be_bytes()).expect("write");
        tx.flush().expect("flush");
        let mut accum = FrameAccum::new();
        let err = loop {
            match accum.poll(&mut rx) {
                Ok(ReadProgress::Pending) => std::thread::sleep(Duration::from_millis(1)),
                Ok(_) => panic!("hostile length accepted"),
                Err(e) => break e,
            }
        };
        assert!(format!("{err}").contains("bad frame length"));
    }

    #[test]
    fn frame_accum_reports_clean_close_at_boundary() {
        let (tx, mut rx) = socket_pair();
        drop(tx);
        let mut accum = FrameAccum::new();
        loop {
            match accum.poll(&mut rx).expect("poll") {
                ReadProgress::Closed => break,
                ReadProgress::Pending => std::thread::sleep(Duration::from_millis(1)),
                ReadProgress::Frame(_) => panic!("frame from nothing"),
            }
        }
    }
}
