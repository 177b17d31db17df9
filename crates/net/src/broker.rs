//! The untrusted dissemination broker: a threaded TCP server that stores
//! and fans out broadcast containers it cannot read.
//!
//! # Threat model
//!
//! The broker is the paper's untrusted third-party channel. Everything it
//! ever holds is public by construction: container skeletons, segment tags,
//! authenticated ciphertexts and the GKM public info (`X`, `z₁…z_N`) that
//! reveals nothing to non-qualified parties. It holds no keys, no CSSs and
//! no subscriber attributes — compromising the broker yields exactly what
//! eavesdropping on the broadcast channel yields. Correspondingly, the
//! broker trusts nobody: every inbound frame is strictly decoded, a
//! malformed or protocol-violating connection is dropped in isolation
//! (never panicking a broker thread), and slow or dead subscribers are
//! disconnected rather than allowed to wedge fan-out. With a
//! [`BrokerConfig::publisher_auth`] key map configured, publishes need an
//! authorized Schnorr signing key (availability against hostile publishers;
//! relayed containers from accepted peers carry no signature and bypass
//! it); the broker verifies with public keys only.
//!
//! # Concurrency
//!
//! Fan-out is **per-subscriber-queued** over an event-driven I/O plane
//! (the crate-private `io_pool` module): each subscriber owns a bounded queue of
//! reference-counted, pre-framed `Deliver` bodies, serviced by a sharded
//! **writer pool** of M threads (M ≈ cores, [`BrokerConfig::writer_pool_threads`])
//! doing non-blocking writes, while idle subscriber connections are
//! multiplexed onto R **reader-pool** threads — an idle subscription
//! costs a socket and a queue, not two thread stacks. A publish enqueues
//! one `Arc` pointer per matching subscriber — under the state lock, so
//! delivery order is the retained-state order — and returns; the
//! publisher's `Ack` latency is enqueue time, independent of the slowest
//! consumer. A subscriber that stalls (or trickles bytes) fills only its
//! own queue (and parks only its own pool slot) and is dropped on
//! overflow or write deadline; nobody else notices. All frames written to
//! a subscribed connection travel through its queue, so a control reply
//! can never interleave mid-`Deliver` on the socket.
//!
//! # Admission
//!
//! A container has one way in. Whatever frame carried it — `Publish`,
//! `PublishSigned`, `Relay` — and whichever thread read it (a
//! connection's handler thread or a reader shard), `dispatch_frame` hands
//! it to one `ingest` step: admit it (open mode, a verified signature, or
//! an accepted peer link past the loop guards), carve the canonical
//! container bytes off the frame body, retain and fan out under the state
//! lock, and answer `Ack` or a typed [`Frame::Reject`]. A refusal is never
//! fatal: the sender may correct — sign, bump the epoch — and retry on
//! the same connection. What differs per source (who may send it, strict
//! or idempotent epochs, which counter a refusal lands in) is data, not a
//! second code path.
//!
//! # Semantics
//!
//! * **Retained history**: the newest [`BrokerConfig::history_depth`]
//!   epochs per document are kept and replayed to late subscribers
//!   oldest-first (at-least-once: a subscriber racing a publish may see
//!   the same epoch twice; epochs make that detectable).
//!   [`Frame::Subscribe`] names the depth it wants, up to the retained
//!   one; depth 1 replays only the newest.
//! * **Durability** (optional): with [`BrokerConfig::store_path`] set,
//!   every accepted publish is appended to a checksummed log before it is
//!   acknowledged ([`crate::store`]); a restarted broker recovers its
//!   retained set — and its epoch-monotonicity guard — from the log.
//! * **Fan-out**: a publish is forwarded to every current subscriber whose
//!   subscription matches the document (empty subscription = everything).
//! * **Registration stays out-of-band**: the broker plays no part in the
//!   OCBE registration flow, exactly as the paper separates the Pub/Sub
//!   registration phase from dissemination.

use crate::auth::PublishAuth;
use crate::error::{NetError, RejectReason};
use crate::frame::{
    deliver_body, publish_auth_message, read_frame_body, relay_body, relay_container_offset,
    signed_container_offset, ConfigSummary, Frame, PeerRole, CONTAINER_OFFSET,
};
use crate::io_pool::{FrameAccum, PoolJob, ReaderConn, ReaderPool, SlotKind, WriterPool};
use crate::relay::{self, relay_verdict, RelayConfig, RelayVerdict};
use crate::store::{FsyncPolicy, RecoveryReport, RetentionStore, StoreTelemetry};
use pbcd_telemetry::{Counter, Gauge, Histogram, Registry, Snapshot, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Broker tuning knobs.
#[derive(Clone)]
pub struct BrokerConfig {
    /// Per-subscriber write deadline applied by that subscriber's writer
    /// thread; a consumer stalled past this is dropped. Never blocks a
    /// publisher — publish latency is bounded by enqueue time regardless.
    pub write_timeout: Option<Duration>,
    /// Read timeout applied until a connection produces its first complete
    /// frame; a connect-and-say-nothing peer is dropped after this instead
    /// of pinning a broker thread forever. Established peers may then idle
    /// indefinitely (subscribers legitimately block awaiting deliveries).
    pub handshake_timeout: Option<Duration>,
    /// Upper bound on concurrent connections; excess connects are closed
    /// immediately (counted in `connections_rejected`).
    pub max_connections: usize,
    /// Upper bound on distinct retained document names; publishes that
    /// would exceed it are rejected (updates to retained documents pass).
    pub max_retained_documents: usize,
    /// Upper bound on the *total bytes* of retained containers; together
    /// with the document cap this keeps hostile publishers from growing
    /// broker memory without limit.
    pub max_retained_bytes: usize,
    /// Frames buffered per subscriber between a publish and that
    /// subscriber's socket. A subscriber whose queue overflows is dropped:
    /// backpressure converts into disconnection (it can reconnect and
    /// replay the retained latest), never into publisher latency.
    pub subscriber_queue: usize,
    /// Authorized publisher keys. `None` — or an authenticator reporting
    /// [`PublishAuth::is_required`] `false` (e.g. an empty
    /// [`crate::auth::PublisherDirectory`]) — is open mode: any peer may
    /// publish. With keys configured, unsigned publishes are refused
    /// (`AuthRequired`) and signed ones must verify and carry a strictly
    /// increasing epoch.
    pub publisher_auth: Option<Arc<dyn PublishAuth>>,
    /// Path of the durable retention log. `None` (the default) keeps
    /// retention purely in memory — the pre-durability behaviour. With a
    /// path set, every accepted publish is appended (and synced per
    /// [`Self::fsync`]) before it is acknowledged, and `bind` recovers the
    /// retained set from the log's longest valid prefix.
    pub store_path: Option<PathBuf>,
    /// When log appends reach stable storage; irrelevant without
    /// [`Self::store_path`]. See [`FsyncPolicy`] for the trade-offs.
    pub fsync: FsyncPolicy,
    /// How many epochs per document are retained for history replay
    /// (clamped to ≥ 1). Depth 1 is newest-epoch-wins retention.
    pub history_depth: usize,
    /// Log-size cap: once the log outgrows this, live records are
    /// compacted into a fresh file. Irrelevant without
    /// [`Self::store_path`].
    pub max_log_bytes: u64,
    /// Broker-overlay peering plane. `None` (the default) is a standalone
    /// broker: overlay frames draw a non-fatal `NotAPeer` refusal and
    /// nothing else changes. With a [`RelayConfig`], the broker
    /// dials its configured downstream peers (forwarding every accepted
    /// publish one hop on) and — when
    /// [`RelayConfig::accept_peers`] — accepts inbound peer links,
    /// cold-starting each from its retention log.
    pub relay: Option<RelayConfig>,
    /// Writer-pool shards (the M in "M+R I/O threads"): how many threads
    /// service the per-subscriber queues with non-blocking writes.
    /// `0` (the default) auto-sizes to the host's available parallelism,
    /// clamped to `1..=8`. One shard is fully functional — a stalled peer
    /// parks only its own slot, never a shard thread.
    pub writer_pool_threads: usize,
    /// Reader-pool shards (the R): how many threads multiplex idle
    /// subscriber connections for inbound frames. `0` (the default)
    /// auto-sizes to half the writer pool, clamped to `1..=4`.
    pub reader_pool_threads: usize,
}

impl BrokerConfig {
    /// The writer-pool size [`Broker::bind_with`] will actually spawn:
    /// the configured value, or the auto-sizing rule for `0`.
    pub fn resolved_writer_pool_threads(&self) -> usize {
        if self.writer_pool_threads > 0 {
            return self.writer_pool_threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 8)
    }

    /// The reader-pool size [`Broker::bind_with`] will actually spawn.
    pub fn resolved_reader_pool_threads(&self) -> usize {
        if self.reader_pool_threads > 0 {
            return self.reader_pool_threads;
        }
        self.resolved_writer_pool_threads().div_ceil(2).clamp(1, 4)
    }
}

impl core::fmt::Debug for BrokerConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BrokerConfig")
            .field("write_timeout", &self.write_timeout)
            .field("handshake_timeout", &self.handshake_timeout)
            .field("max_connections", &self.max_connections)
            .field("max_retained_documents", &self.max_retained_documents)
            .field("max_retained_bytes", &self.max_retained_bytes)
            .field("subscriber_queue", &self.subscriber_queue)
            .field(
                "publisher_auth",
                &self.publisher_auth.as_ref().map(|a| a.is_required()),
            )
            .field("store_path", &self.store_path)
            .field("fsync", &self.fsync)
            .field("history_depth", &self.history_depth)
            .field("max_log_bytes", &self.max_log_bytes)
            .field("relay", &self.relay)
            .field("writer_pool_threads", &self.writer_pool_threads)
            .field("reader_pool_threads", &self.reader_pool_threads)
            .finish()
    }
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            write_timeout: Some(Duration::from_secs(5)),
            handshake_timeout: Some(Duration::from_secs(10)),
            max_connections: 1024,
            max_retained_documents: 256,
            max_retained_bytes: 256 * 1024 * 1024,
            subscriber_queue: 64,
            publisher_auth: None,
            store_path: None,
            fsync: FsyncPolicy::PerPublish,
            history_depth: 1,
            max_log_bytes: 1024 * 1024 * 1024,
            relay: None,
            writer_pool_threads: 0,
            reader_pool_threads: 0,
        }
    }
}

/// Counters exposed by [`BrokerHandle::stats`].
///
/// # Consistency contract
///
/// Every field is materialized from **one** registry snapshot taken while
/// the broker state lock is held, and publish-side counters are bumped
/// inside that same lock. A `BrokerStats` is therefore internally
/// consistent with respect to publishes: a snapshot can never show (say) a
/// publish's retained bytes without its `publishes` increment. Counters
/// updated by writer threads outside the lock (`deliveries`, write-failure
/// drops) are monotone and at most a few events behind the instant of the
/// call — never ahead of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Containers accepted from publishers.
    pub publishes: u64,
    /// Publishes refused (missing/bad signature, stale epoch, retention
    /// caps) — the availability counter hostile publishers show up in.
    pub publishes_rejected: u64,
    /// Containers written to subscribers (fan-out plus replays). Updated
    /// by the writer threads as sockets accept the bytes, so it trails
    /// the publish `Ack` by however long the slowest live consumer takes.
    pub deliveries: u64,
    /// Subscribers dropped after a queue overflow or a failed/timed-out
    /// write.
    pub subscribers_dropped: u64,
    /// Connections terminated for malformed or protocol-violating input.
    pub connections_rejected: u64,
    /// Frames currently sitting in subscriber queues (a gauge, summed over
    /// live subscribers at the moment of the stats call).
    pub queue_depth: u64,
    /// Distinct document names currently retained (a gauge).
    pub retained_documents: u64,
    /// Total container bytes currently retained across every held epoch
    /// (a gauge; the currency of [`BrokerConfig::max_retained_bytes`]).
    pub retained_bytes: u64,
    /// Current size of the durable retention log in bytes (0 without a
    /// [`BrokerConfig::store_path`]).
    pub log_bytes: u64,
    /// Records recovered from the log when this broker started.
    pub records_recovered: u64,
    /// Log compactions performed since this broker started.
    pub compactions: u64,
    /// Relayed containers accepted from peer brokers (retained and fanned
    /// out exactly like local publishes).
    pub relays_accepted: u64,
    /// Relayed containers refused by the overlay guards (loop, stale hop,
    /// non-peer sender) — all non-fatal, the idempotency/loop-suppression
    /// machinery showing up as a number instead of a hang.
    pub relays_suppressed: u64,
    /// Containers this broker's outbound peer links delivered downstream
    /// (live forwards plus catch-up records, summed over peers).
    pub relays_forwarded: u64,
    /// Retained records streamed to cold-starting or resyncing peers (a
    /// subset of [`Self::relays_forwarded`]).
    pub relay_catch_up_records: u64,
    /// Outbound peer links currently live — connected, caught up or
    /// streaming (a gauge).
    pub relay_links: u64,
}

/// Why a subscriber was dropped — the label on
/// `broker_subscriber_drops_total{cause=...}`.
#[derive(Clone, Copy, Debug)]
enum DropCause {
    /// Live fan-out or a control reply found the subscriber's queue full.
    QueueOverflow,
    /// The subscriber's writer-pool slot hit a failed or timed-out write.
    WriteFailed,
    /// A (re-)subscribe could not even enqueue its Ack + retained replay.
    ReplayOverflow,
}

/// Pre-resolved registry handles for every broker metric. Hot paths touch
/// only the cloned atomic handles (one relaxed add each); the registry map
/// lock is taken at registration and snapshot time only.
pub(crate) struct BrokerTelemetry {
    pub(crate) registry: Registry,
    publishes: Counter,
    publishes_rejected: Counter,
    deliveries: Counter,
    subscribers_dropped: Counter,
    connections_rejected: Counter,
    drop_queue_overflow: Counter,
    drop_write_failed: Counter,
    drop_replay_overflow: Counter,
    publish_ack_ns: Histogram,
    enqueue_to_write_ns: Histogram,
    pool_wakeup_ns: Histogram,
    writer_pool_threads: Gauge,
    reader_pool_threads: Gauge,
    reader_fds: Gauge,
    queue_depth: Gauge,
    retained_documents: Gauge,
    retained_bytes: Gauge,
    log_bytes: Gauge,
    records_recovered: Gauge,
    compactions: Gauge,
    relays_accepted: Counter,
    relays_suppressed: Counter,
    suppressed_loop: Counter,
    suppressed_stale: Counter,
    suppressed_not_peer: Counter,
    pub(crate) relays_forwarded: Counter,
    pub(crate) relay_catch_up_records: Counter,
    pub(crate) relay_lag_ns: Histogram,
    relay_links: Gauge,
    relay_links_dropped: Counter,
}

impl BrokerTelemetry {
    /// Registers every broker metric eagerly, so a scrape of an idle
    /// broker already exposes the full (all-zero) metric set.
    fn new() -> BrokerTelemetry {
        let registry = Registry::new();
        BrokerTelemetry {
            publishes: registry.counter("broker_publishes_total"),
            publishes_rejected: registry.counter("broker_publishes_rejected_total"),
            deliveries: registry.counter("broker_deliveries_total"),
            subscribers_dropped: registry.counter("broker_subscribers_dropped_total"),
            connections_rejected: registry.counter("broker_connections_rejected_total"),
            drop_queue_overflow: registry
                .counter("broker_subscriber_drops_total{cause=\"queue_overflow\"}"),
            drop_write_failed: registry
                .counter("broker_subscriber_drops_total{cause=\"write_failed\"}"),
            drop_replay_overflow: registry
                .counter("broker_subscriber_drops_total{cause=\"replay_overflow\"}"),
            publish_ack_ns: registry.histogram("broker_publish_ack_ns"),
            enqueue_to_write_ns: registry.histogram("broker_enqueue_to_write_ns"),
            pool_wakeup_ns: registry.histogram("broker_pool_wakeup_ns"),
            writer_pool_threads: registry.gauge("broker_writer_pool_threads"),
            reader_pool_threads: registry.gauge("broker_reader_pool_threads"),
            reader_fds: registry.gauge("broker_reader_fds"),
            queue_depth: registry.gauge("broker_queue_depth"),
            retained_documents: registry.gauge("broker_retained_documents"),
            retained_bytes: registry.gauge("broker_retained_bytes"),
            log_bytes: registry.gauge("broker_log_bytes"),
            records_recovered: registry.gauge("broker_records_recovered"),
            compactions: registry.gauge("broker_log_compactions"),
            relays_accepted: registry.counter("broker_relays_accepted_total"),
            relays_suppressed: registry.counter("broker_relays_suppressed_total"),
            suppressed_loop: registry.counter("broker_relays_suppressed_total{cause=\"loop\"}"),
            suppressed_stale: registry.counter("broker_relays_suppressed_total{cause=\"stale\"}"),
            suppressed_not_peer: registry
                .counter("broker_relays_suppressed_total{cause=\"not_a_peer\"}"),
            relays_forwarded: registry.counter("broker_relays_forwarded_total"),
            relay_catch_up_records: registry.counter("broker_relay_catch_up_records_total"),
            relay_lag_ns: registry.histogram("broker_relay_lag_ns"),
            relay_links: registry.gauge("broker_relay_links"),
            relay_links_dropped: registry.counter("broker_relay_links_dropped_total"),
            registry,
        }
    }

    /// Counts a subscriber drop under both the total and its cause label.
    fn count_drop(&self, cause: DropCause, conn_id: u64) {
        self.subscribers_dropped.inc();
        match cause {
            DropCause::QueueOverflow => self.drop_queue_overflow.inc(),
            DropCause::WriteFailed => self.drop_write_failed.inc(),
            DropCause::ReplayOverflow => self.drop_replay_overflow.inc(),
        }
        self.trace(TraceKind::Drop, conn_id, 0, 0);
    }

    /// Records one wire-level trace event.
    pub(crate) fn trace(&self, kind: TraceKind, conn_id: u64, epoch: u64, duration_ns: u64) {
        self.registry.trace().record(TraceEvent {
            timestamp_ns: self.registry.now_ns(),
            conn_id,
            kind,
            epoch,
            duration_ns,
        });
    }

    /// Accounts one completed `Deliver` write (called by the writer-pool
    /// shard that drained the frame): the deliveries counter, the
    /// enqueue→write latency histogram, and a trace event.
    pub(crate) fn record_delivery(&self, conn_id: u64, epoch: u64, wait_ns: u64) {
        self.deliveries.inc();
        self.enqueue_to_write_ns.record(wait_ns);
        self.trace(TraceKind::Deliver, conn_id, epoch, wait_ns);
    }

    /// Records one writer-pool wakeup latency (condvar notify → shard
    /// thread running).
    pub(crate) fn record_pool_wakeup(&self, ns: u64) {
        self.pool_wakeup_ns.record(ns);
    }

    /// Counts one connection terminated for malformed input (the reader
    /// pool's share of the accounting [`ConnWriter::fatal`] does).
    pub(crate) fn count_rejected_connection(&self) {
        self.connections_rejected.inc();
    }
}

/// One registered subscriber: its depth gauge and document filter. The
/// queue itself lives in the subscriber's writer-pool slot (keyed by the
/// same connection id); `depth` is shared with that slot, which keeps
/// it current, so the aggregate queue-depth gauge sums these.
struct SubEntry {
    depth: Arc<AtomicU64>,
    /// Empty set = subscribed to every document.
    documents: Vec<String>,
}

impl SubEntry {
    fn matches(&self, document: &str) -> bool {
        self.documents.is_empty() || self.documents.iter().any(|d| d == document)
    }
}

/// One ack expectation queued to an outbound peer link's thread: pushed
/// (in the same state-lock critical section) for every `Relay` body
/// enqueued onto the link's writer-pool slot, and matched FIFO against
/// the peer's synchronous verdicts by the link thread. The frame bytes
/// themselves travel the writer pool; this carries only the metadata the
/// ack reader needs.
pub(crate) struct RelayJob {
    /// Container epoch, for trace events.
    pub(crate) epoch: u64,
    /// Registry timestamp of the enqueue for a live forward (the link
    /// thread records enqueue→downstream-ack into the relay-lag
    /// histogram); `None` marks a cold-start catch-up record.
    pub(crate) enqueued_ns: Option<u64>,
}

/// One live outbound peer link: the bounded ack-expectation queue its
/// link thread drains (its frame bytes ride the writer pool under the
/// same link id). Registered only once the link is connected and past
/// its catch-up snapshot, so `relay_links.len()` gauges *live* links.
pub(crate) struct RelayLink {
    pub(crate) sender: SyncSender<RelayJob>,
}

/// Where a retained document entered the overlay — the origin id and hop
/// count stamped on the `Relay` frame it arrived in. Locally published
/// documents have no entry (this broker *is* their origin). In-memory
/// only: after a restart the broker re-originates relayed documents under
/// its own id, with epoch monotonicity as the documented backstop against
/// the resulting re-circulation.
pub(crate) struct RelayMeta {
    pub(crate) origin: String,
    pub(crate) hops: u8,
}

/// Mutable broker state behind one lock. The lock is held only for map
/// bookkeeping, retention-store updates and queue pushes — never across a
/// socket write. (With `PerPublish` fsync the log sync also runs under the
/// lock: that *is* the durability contract — the Ack must not outrun the
/// disk.)
pub(crate) struct State {
    /// Per-document retained epoch history (pre-framed `Deliver` bodies,
    /// shared so fan-out and replay enqueue pointer clones), optionally
    /// backed by the on-disk log.
    pub(crate) store: RetentionStore,
    /// connection id → subscriber registration.
    subscribers: BTreeMap<u64, SubEntry>,
    /// connection id → raw stream of every live connection (for shutdown).
    pub(crate) connections: BTreeMap<u64, TcpStream>,
    /// link id → live outbound peer link (fed under this lock, exactly
    /// like subscriber queues, so relay order is retained-state order).
    pub(crate) relay_links: BTreeMap<u64, RelayLink>,
    /// document → overlay provenance of its newest retained epoch.
    pub(crate) relay_meta: BTreeMap<String, RelayMeta>,
    /// Join handles of per-connection handler, writer *and* link threads.
    pub(crate) threads: Vec<JoinHandle<()>>,
}

/// The broker's I/O plane: the sharded writer pool and reader pool,
/// installed once at bind time (before the accept loop starts, so every
/// connection can rely on it).
pub(crate) struct IoPlanes {
    pub(crate) writer: WriterPool,
    pub(crate) reader: ReaderPool,
}

pub(crate) struct Shared {
    pub(crate) config: BrokerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) state: Mutex<State>,
    pub(crate) next_conn_id: AtomicU64,
    pub(crate) telemetry: BrokerTelemetry,
    pub(crate) io: OnceLock<IoPlanes>,
}

impl Shared {
    /// The I/O plane; set in `bind_with` before the accept loop spawns.
    pub(crate) fn io(&self) -> &IoPlanes {
        self.io.get().expect("I/O planes installed at bind")
    }
}

/// The single read path for broker observability: sets every gauge from
/// live state and snapshots the registry, all inside one state-lock
/// critical section (the [`BrokerStats`] consistency contract).
fn telemetry_snapshot(shared: &Shared) -> Snapshot {
    let state = shared.state.lock().expect("broker state");
    let t = &shared.telemetry;
    t.queue_depth.set(
        state
            .subscribers
            .values()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum(),
    );
    t.retained_documents
        .set(state.store.document_count() as u64);
    t.retained_bytes.set(state.store.retained_bytes() as u64);
    t.log_bytes.set(state.store.log_bytes());
    t.records_recovered
        .set(state.store.recovery().records_recovered);
    t.compactions.set(state.store.compactions());
    t.relay_links.set(state.relay_links.len() as u64);
    if let Some(io) = shared.io.get() {
        t.reader_fds.set(io.reader.fd_count());
        // Per-shard depth gauges: state → shard is the sanctioned lock
        // order, so refreshing them here is race-free with enqueues.
        io.writer.set_depth_gauges();
    }
    t.registry.snapshot()
}

/// The dissemination broker. [`Broker::bind`] starts the accept loop and
/// returns a [`BrokerHandle`] owning it.
pub struct Broker;

impl Broker {
    /// Binds `addr` (use port 0 for an ephemeral port) with defaults.
    pub fn bind(addr: &str) -> io::Result<BrokerHandle> {
        Self::bind_with(addr, BrokerConfig::default())
    }

    /// Binds with explicit configuration. With a
    /// [`BrokerConfig::store_path`], this opens the log and recovers the
    /// retained set (longest valid prefix, torn tail truncated) before the
    /// first connection is accepted.
    pub fn bind_with(addr: &str, config: BrokerConfig) -> io::Result<BrokerHandle> {
        let telemetry = BrokerTelemetry::new();
        let mut store = match &config.store_path {
            Some(path) => RetentionStore::open(
                path,
                config.history_depth,
                config.max_log_bytes,
                config.fsync,
            )?,
            None => RetentionStore::in_memory(config.history_depth),
        };
        store.attach_telemetry(StoreTelemetry::new(&telemetry.registry));
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            shutdown: AtomicBool::new(false),
            state: Mutex::new(State {
                store,
                subscribers: BTreeMap::new(),
                connections: BTreeMap::new(),
                relay_links: BTreeMap::new(),
                relay_meta: BTreeMap::new(),
                threads: Vec::new(),
            }),
            next_conn_id: AtomicU64::new(0),
            telemetry,
            io: OnceLock::new(),
        });
        // Spawn the I/O plane before the accept loop: every connection
        // thread may hand work to it, so it must exist first.
        let writer_threads = shared.config.resolved_writer_pool_threads();
        let reader_threads = shared.config.resolved_reader_pool_threads();
        let writer = WriterPool::spawn(&shared, writer_threads)?;
        let reader = match ReaderPool::spawn(&shared, reader_threads) {
            Ok(r) => r,
            Err(e) => {
                writer.shutdown();
                writer.join();
                return Err(e);
            }
        };
        shared
            .telemetry
            .writer_pool_threads
            .set(writer_threads as u64);
        shared
            .telemetry
            .reader_pool_threads
            .set(reader_threads as u64);
        let _ = shared.io.set(IoPlanes { writer, reader });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("pbcd-broker-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        // Dial the configured downstream peers. Each link thread owns its
        // connect/handshake/catch-up/forward lifecycle and reconnects with
        // capped jittered backoff, so an unreachable peer costs nothing
        // but a sleeping thread.
        if let Some(relay_config) = shared.config.relay.clone() {
            for peer in relay_config.peers {
                relay::spawn_link(&shared, peer)?;
            }
        }
        Ok(BrokerHandle {
            addr: local_addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// Owner of a running broker; dropping it shuts the broker down.
pub struct BrokerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl BrokerHandle {
    /// The bound address (resolve ephemeral ports through this).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot — a fixed-shape view over [`Self::metrics`], kept
    /// for source compatibility. See the [`BrokerStats`] consistency
    /// contract: all fields come from one registry snapshot.
    pub fn stats(&self) -> BrokerStats {
        let snap = telemetry_snapshot(&self.shared);
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
        BrokerStats {
            publishes: counter("broker_publishes_total"),
            publishes_rejected: counter("broker_publishes_rejected_total"),
            deliveries: counter("broker_deliveries_total"),
            subscribers_dropped: counter("broker_subscribers_dropped_total"),
            connections_rejected: counter("broker_connections_rejected_total"),
            queue_depth: gauge("broker_queue_depth"),
            retained_documents: gauge("broker_retained_documents"),
            retained_bytes: gauge("broker_retained_bytes"),
            log_bytes: gauge("broker_log_bytes"),
            records_recovered: gauge("broker_records_recovered"),
            compactions: gauge("broker_log_compactions"),
            relays_accepted: counter("broker_relays_accepted_total"),
            relays_suppressed: counter("broker_relays_suppressed_total"),
            relays_forwarded: counter("broker_relays_forwarded_total"),
            relay_catch_up_records: counter("broker_relay_catch_up_records_total"),
            relay_links: gauge("broker_relay_links"),
        }
    }

    /// Dials `addr` as a new downstream peer at runtime — the attach path
    /// for edges whose address is not known at bind time (every test
    /// broker binds port 0). Requires a [`BrokerConfig::relay`]
    /// configuration; the link thread it spawns connects, cold-starts the
    /// peer from this broker's retention log, then forwards live, and
    /// reconnects with capped jittered backoff after any failure.
    pub fn add_peer(&self, addr: impl Into<String>) -> Result<(), NetError> {
        if self.shared.config.relay.is_none() {
            return Err(NetError::protocol(
                "add_peer requires BrokerConfig::relay to be configured",
            ));
        }
        relay::spawn_link(&self.shared, addr.into())?;
        Ok(())
    }

    /// Full metrics snapshot: every broker counter and gauge plus the
    /// latency histograms (publish→ack, enqueue→write, store append /
    /// fsync / compaction / recovery-scan timings).
    pub fn metrics(&self) -> Snapshot {
        telemetry_snapshot(&self.shared)
    }

    /// [`Self::metrics`] in the text exposition format — the same bytes a
    /// [`Frame::StatsRequest`] returns over the wire.
    pub fn metrics_text(&self) -> String {
        telemetry_snapshot(&self.shared).render_text()
    }

    /// The most recent wire-level trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.telemetry.registry.trace().events()
    }

    /// What startup recovery found in the durable log (all zeroes for an
    /// in-memory broker or a fresh log).
    pub fn recovery(&self) -> RecoveryReport {
        self.shared
            .state
            .lock()
            .expect("broker state")
            .store
            .recovery()
    }

    /// The `(writer, reader)` I/O-pool thread counts this broker is
    /// running — the exact set of threads [`Self::shutdown`] joins on
    /// top of the accept loop and any transient handler threads.
    pub fn io_thread_counts(&self) -> (usize, usize) {
        let io = self.shared.io();
        (io.writer.thread_count(), io.reader.thread_count())
    }

    /// Number of currently registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("broker state")
            .subscribers
            .len()
    }

    /// The encoded bytes the broker retains for `document` — everything a
    /// compromise of the broker would leak for it. Tests audit these for
    /// plaintext.
    pub fn retained_container(&self, document: &str) -> Option<Vec<u8>> {
        self.shared
            .state
            .lock()
            .expect("broker state")
            .store
            .newest_body(document)
            .map(|body| body[CONTAINER_OFFSET..].to_vec())
    }

    /// Graceful shutdown: stops accepting, closes every connection, joins
    /// every thread. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock per-connection reads and drop every registration so no
        // further work reaches the I/O plane.
        {
            let mut state = self.shared.state.lock().expect("broker state");
            state.subscribers.clear();
            // Dropping the link senders wakes link threads parked in
            // `recv`; the shutdown flag (checked before every reconnect
            // and backoff slice) stops them from dialing again.
            state.relay_links.clear();
            for stream in state.connections.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            // Graceful shutdown loses nothing even under fsync-off.
            let _ = state.store.sync();
        }
        // Stop the I/O plane: exactly M writer + R reader threads join
        // here, independent of how many subscribers were attached.
        if let Some(io) = self.shared.io.get() {
            io.writer.shutdown();
            io.reader.shutdown();
            io.writer.join();
            io.reader.join();
        }
        crate::direct::wake_and_join(self.addr, accept);
    }
}

impl Drop for BrokerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshake);
            // keep serving unless we are shutting down — but back off so a
            // persistent condition (fd exhaustion) doesn't busy-spin a core.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let Ok(raw) = stream.try_clone() else {
            continue;
        };
        // Register under the state lock, re-checking the shutdown flag
        // there: shutdown sets the flag *before* taking the lock for its
        // close sweep, so either we see the flag and bail, or our stream is
        // in the map when the sweep runs — no connection can slip through
        // unclosed and leave its handler thread blocked forever.
        {
            let mut state = shared.state.lock().expect("broker state");
            // Reap finished connection/writer threads so bookkeeping stays
            // proportional to *live* connections, not total served.
            let (done, running): (Vec<_>, Vec<_>) = std::mem::take(&mut state.threads)
                .into_iter()
                .partition(|t| t.is_finished());
            state.threads = running;
            for t in done {
                let _ = t.join();
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if state.connections.len() >= shared.config.max_connections {
                shared.telemetry.connections_rejected.inc();
                continue; // drops both handles, closing the socket
            }
            state.connections.insert(id, raw);
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("pbcd-broker-conn-{id}"))
            .spawn(move || {
                handle_connection(conn_shared, id, stream);
            });
        let mut state = shared.state.lock().expect("broker state");
        match spawned {
            Ok(handle) => state.threads.push(handle),
            Err(_) => {
                state.connections.remove(&id);
            }
        }
    }
    // Drain connection and writer threads so shutdown is a real join.
    loop {
        let threads = {
            let mut state = shared.state.lock().expect("broker state");
            std::mem::take(&mut state.threads)
        };
        if threads.is_empty() {
            break;
        }
        // Handler threads may register *writer* threads while we join, so
        // loop until the set is empty.
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Where a connection's outbound frames go. Every connection starts
/// `Direct`: its handler thread writes replies to the socket itself. The
/// first `Subscribe` registers a writer-pool slot under the connection id
/// and the connection becomes `Queued`: every further frame — deliveries
/// and replies alike — travels that slot's queue, so nothing interleaves
/// mid-frame on the socket.
pub(crate) enum ConnWriter {
    Direct(TcpStream),
    Queued,
}

impl ConnWriter {
    /// Sends one reply frame; an `Err` means the connection is beyond
    /// serving and the caller closes it. For queued connections this is a
    /// non-blocking enqueue, and a full queue drops the subscriber
    /// (counted under `cause="queue_overflow"`, like every other drop).
    fn reply(&mut self, shared: &Shared, id: u64, frame: &Frame) -> Result<(), NetError> {
        let body = frame.encode()?;
        match self {
            Self::Direct(stream) => {
                let deadline = shared.config.write_timeout.map(|t| Instant::now() + t);
                write_body_deadline(stream, &body, deadline)
            }
            Self::Queued => {
                let job = PoolJob::Control(Arc::new(body));
                if shared.io().writer.enqueue(shared, id, job) {
                    return Ok(());
                }
                let mut state = shared.state.lock().expect("broker state");
                remove_subscriber(shared, &mut state, id, Some(DropCause::QueueOverflow));
                Err(NetError::protocol("subscriber queue overflow"))
            }
        }
    }

    /// Counts the connection as rejected, reports `message` in a fatal
    /// `Error` frame (best effort) and returns the error that closes it:
    /// the answer to malformed or protocol-violating input.
    fn fatal(&mut self, shared: &Shared, id: u64, message: String) -> NetError {
        shared.telemetry.connections_rejected.inc();
        let error = Frame::Error {
            message: message.clone(),
        };
        let _ = self.reply(shared, id, &error);
        NetError::Protocol(message)
    }
}

/// The one way a subscriber leaves [`State`], under the already-held
/// lock: its registration and its writer-pool slot go together. With a
/// `cause` this is a *drop* — counted exactly once (only if the
/// subscription was still registered) and the socket closed, so every
/// holder of the connection unwinds; without one it is the quiet half of
/// a connection teardown.
fn remove_subscriber(shared: &Shared, state: &mut State, id: u64, cause: Option<DropCause>) {
    let was_registered = state.subscribers.remove(&id).is_some();
    // state → shard is the sanctioned lock order; idempotent if the pool
    // already dropped the slot itself.
    shared.io().writer.remove(id);
    let Some(cause) = cause else { return };
    if was_registered {
        shared.telemetry.count_drop(cause, id);
    }
    if let Some(conn) = state.connections.get(&id) {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// Writer-pool callback: a slot's write failed or its frame deadline
/// expired (the slot itself is already gone and its socket dup closed).
/// Runs with no shard lock held.
pub(crate) fn on_pool_write_failure(shared: &Shared, id: u64, kind: SlotKind) {
    let mut state = shared.state.lock().expect("broker state");
    match kind {
        SlotKind::Subscriber => {
            remove_subscriber(shared, &mut state, id, Some(DropCause::WriteFailed))
        }
        SlotKind::RelayLink => {
            // Close the link's registered socket so its (reader) thread
            // observes the dead connection promptly and reconnects with
            // backoff + log resync; `run_link_once` owns the rest of the
            // cleanup.
            if let Some(conn) = state.connections.get(&id) {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Connection teardown, shared by the handler thread and the reader pool
/// (EOF, error or a fatal frame): deregistering the subscription and its
/// pool slot stops further enqueues, and the socket is closed for every
/// other holder of a dup.
pub(crate) fn close_connection(shared: &Shared, id: u64) {
    let mut state = shared.state.lock().expect("broker state");
    remove_subscriber(shared, &mut state, id, None);
    if let Some(conn) = state.connections.remove(&id) {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// What a served frame asks of the loop that read it. (A connection that
/// has served its last frame is an `Err` from [`dispatch_frame`].)
pub(crate) enum FrameFlow {
    /// Keep serving this connection.
    Continue,
    /// First `Subscribe` completed on a `Direct` connection: the write
    /// half is now a writer-pool slot and the read half moves to the
    /// reader pool (the handler thread exits).
    HandOff,
}

/// The blocking half of a connection's life, on its own handler thread.
/// Every error path here terminates *this* connection only: decode
/// errors, protocol violations and write failures are contained, and the
/// loop itself never panics on peer input. Publishers and inbound peer
/// links stay on this thread for their whole life (their latency is
/// syscall-direct); a connection that subscribes is handed off to the I/O
/// pools — reads to a reader shard, writes to its writer-pool slot — and
/// this thread exits. Both halves serve frames through the same
/// [`dispatch_frame`].
fn handle_connection(shared: Arc<Shared>, id: u64, mut stream: TcpStream) {
    let shared = &shared;
    let mut writer = match stream.try_clone() {
        Ok(w) => ConnWriter::Direct(w),
        Err(_) => return close_connection(shared, id),
    };
    let _ = stream.set_nodelay(true);
    shared.telemetry.trace(TraceKind::Connect, id, 0, 0);
    // Until the peer has produced one complete frame, reads are bounded by
    // the handshake timeout: a connect-and-say-nothing peer cannot pin this
    // thread forever. Once it speaks, blocking indefinitely is legitimate
    // (a publisher idles between broadcasts).
    let mut handshaken = false;
    let _ = stream.set_read_timeout(shared.config.handshake_timeout);
    // Set once this connection completes a `PeerHello` exchange: only then
    // are inbound `Relay` frames honored (anything else is `NotAPeer`).
    let mut peer_id: Option<String> = None;

    loop {
        let body = match read_frame_body(&mut stream) {
            Ok(b) => b,
            Err(NetError::Closed) | Err(NetError::Io { .. }) => break,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(e) => {
                // Hostile length prefix: report, count, drop the peer.
                writer.fatal(shared, id, format!("malformed frame: {e}"));
                break;
            }
        };
        if !handshaken {
            handshaken = true;
            let _ = stream.set_read_timeout(None);
        }
        match dispatch_frame(shared, id, &mut writer, &mut peer_id, body) {
            Ok(FrameFlow::Continue) => {}
            Ok(FrameFlow::HandOff) => {
                // The write half is a pool slot and the fd is already
                // non-blocking (shared with the write half); the read
                // half joins the reader pool, which owns teardown from
                // here. This thread's stack is released — the whole
                // point of the event-driven plane.
                let conn = ReaderConn {
                    id,
                    stream,
                    accum: FrameAccum::new(),
                    peer_id,
                };
                if shared.io().reader.adopt(conn) {
                    return;
                }
                // Shutdown raced the handoff: tear down normally.
                break;
            }
            // Served its last frame; the accounting is already done.
            Err(_) => break,
        }
    }
    close_connection(shared, id);
}

/// Serves one frame for connection `id`, replying through `writer` — the
/// single entry point for inbound frames, called with nothing in front of
/// it by both the handler-thread loop (blocking reads, `Direct` replies
/// until the first subscribe) and the reader pool (non-blocking reads,
/// queued replies), so the protocol semantics cannot drift between the
/// two. `Err` means the connection has served its last frame (`Bye`, a
/// fatal violation, or a reply that could not be sent) and the caller
/// closes it; every counter and trace event is already recorded.
pub(crate) fn dispatch_frame(
    shared: &Shared,
    id: u64,
    writer: &mut ConnWriter,
    peer_id: &mut Option<String>,
    body: Vec<u8>,
) -> Result<FrameFlow, NetError> {
    let frame = match Frame::decode(&body) {
        Ok(f) => f,
        Err(e) if shared.shutdown.load(Ordering::SeqCst) => return Err(e.into()),
        // Malformed input: report, count, drop the peer.
        Err(e) => return Err(writer.fatal(shared, id, format!("malformed frame: {e}"))),
    };
    match frame {
        Frame::Hello { role: _ } => {
            let hello = Frame::Hello {
                role: PeerRole::Broker,
            };
            writer.reply(shared, id, &hello)?;
        }
        // Every container-bearing frame is the same admission sequence;
        // what differs per kind is data on the `Source`.
        Frame::Publish(container) => {
            let source = Source::Unsigned;
            ingest(shared, id, writer, peer_id, source, &container, body)?;
        }
        Frame::PublishSigned {
            key_id,
            signature,
            container,
        } => {
            let source = Source::Signed {
                key_id: &key_id,
                signature: &signature,
            };
            ingest(shared, id, writer, peer_id, source, &container, body)?;
        }
        Frame::Relay {
            origin,
            hops,
            container,
        } => {
            let source = Source::Peer {
                origin: &origin,
                hops,
            };
            ingest(shared, id, writer, peer_id, source, &container, body)?;
        }
        Frame::Subscribe { documents, depth } => {
            // Depth is a request, not a demand: the broker replays at
            // most what it retains (its configured history depth).
            let was_direct = matches!(writer, ConnWriter::Direct(_));
            handle_subscribe(shared, id, writer, documents, depth.max(1) as usize)?;
            shared.telemetry.trace(TraceKind::Subscribe, id, 0, 0);
            if was_direct {
                return Ok(FrameFlow::HandOff);
            }
        }
        Frame::ListConfigs => {
            let entries: Vec<ConfigSummary> = {
                let state = shared.state.lock().expect("broker state");
                state.store.summaries()
            };
            writer.reply(shared, id, &Frame::Configs(entries))?;
        }
        Frame::StatsRequest => {
            // Aggregates only: the exposition carries counters, gauges
            // and latency quantiles — never container bytes, document
            // plaintext or subscriber identities (see the module-level
            // threat model).
            let text = telemetry_snapshot(shared).render_text();
            writer.reply(shared, id, &Frame::StatsResponse { text })?;
        }
        Frame::PeerHello { broker_id } => {
            // An inbound peer link opening. Refusal is typed and
            // non-fatal: a broker that does not accept peers is still
            // a perfectly good broker for this connection's other
            // traffic (and the dialer's backoff handles the rest).
            let Some(relay_config) = shared.config.relay.as_ref().filter(|r| r.accept_peers) else {
                let reject = PublishReject::new(
                    RejectReason::NotAPeer,
                    "this broker does not accept relay peers",
                );
                refuse(shared, id, writer, true, 0, reject)?;
                return Ok(FrameFlow::Continue);
            };
            let hello = Frame::PeerHello {
                broker_id: relay_config.broker_id.clone(),
            };
            // Reply with our id, then immediately advertise our
            // retained high-water marks: the upstream streams exactly
            // the records we are missing (cold start and partition
            // resync are the same exchange).
            let known = {
                let state = shared.state.lock().expect("broker state");
                state.store.newest_epochs()
            };
            *peer_id = Some(broker_id);
            writer.reply(shared, id, &hello)?;
            writer.reply(shared, id, &Frame::RelayCatchUp { known })?;
        }
        Frame::Bye => {
            let _ = writer.reply(shared, id, &Frame::Bye);
            return Err(NetError::Closed);
        }
        // Frames only the broker may send: a client speaking them is
        // confused or hostile — cut it off (in isolation).
        // (`RelayCatchUp` travels downstream→upstream on a link the
        // *upstream* dialed; inbound on an accepted connection it is
        // equally out of place.)
        Frame::Deliver(_)
        | Frame::Configs(_)
        | Frame::Ack { .. }
        | Frame::Error { .. }
        | Frame::Reject { .. }
        | Frame::StatsResponse { .. }
        | Frame::RelayCatchUp { .. } => {
            let message = "unexpected broker-only frame from client".to_string();
            return Err(writer.fatal(shared, id, message));
        }
    }
    Ok(FrameFlow::Continue)
}

/// Who handed the broker a container: everything the one admission
/// sequence ([`ingest`]) needs to know that differs per frame kind.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// `Publish`: no credentials. Admitted in open mode only; an equal
    /// epoch passes, so a publisher may idempotently retry a lost `Ack`.
    Unsigned,
    /// `PublishSigned`: admitted once the signature verifies under an
    /// authorized key (unchecked in open mode); epochs strictly increase,
    /// so a captured frame cannot be replayed even at its own epoch.
    Signed {
        key_id: &'a str,
        signature: &'a [u8],
    },
    /// `Relay`: admitted from an accepted peer link past the loop guards.
    /// The link itself is the authorization: signatures were verified
    /// where the container entered the overlay (origin-only), and the
    /// container's own authenticated encryption — the paper's core
    /// property — is what a hostile edge cannot forge. Epochs strictly
    /// increase; refusals are counted as overlay suppressions.
    Peer { origin: &'a str, hops: u8 },
}

impl Source<'_> {
    /// Where the canonical container encoding starts in the frame body.
    fn container_offset(&self) -> usize {
        match self {
            Self::Unsigned => CONTAINER_OFFSET,
            Self::Signed { key_id, signature } => signed_container_offset(key_id, signature.len()),
            Self::Peer { origin, .. } => relay_container_offset(origin),
        }
    }

    fn is_peer(&self) -> bool {
        matches!(self, Self::Peer { .. })
    }
}

/// The one way a container enters the broker, whatever frame carried it:
/// (1) admit it, (2) carve the canonical container bytes off the frame
/// body, (3) retain and fan out ([`handle_publish`]), (4) answer `Ack` or
/// a typed, non-fatal `Reject` — the sender may correct and retry on the
/// same connection. Steps 1–2 run outside the state lock.
fn ingest(
    shared: &Shared,
    id: u64,
    writer: &mut ConnWriter,
    peer_id: &Option<String>,
    source: Source<'_>,
    container: &pbcd_docs::BroadcastContainer,
    mut body: Vec<u8>,
) -> Result<(), NetError> {
    let start = Instant::now();
    let epoch = container.epoch;
    // The strict decode guarantees the body tail from this offset *is* the
    // canonical container encoding: verify it and retain it as received
    // instead of re-encoding megabytes on the hot path.
    let offset = source.container_offset();
    let verdict = admit(shared, peer_id, source, container, &body[offset..]).and_then(|()| {
        body.drain(..offset);
        handle_publish(shared, container, body, source)
    });
    match verdict {
        Ok(fanout) => {
            writer.reply(shared, id, &Frame::Ack { epoch, fanout })?;
            // Publish→ack latency is the local publisher's metric,
            // recorded once the Ack is written (Direct) or enqueued
            // (Queued); a forwarding peer times its own enqueue→ack lag.
            let elapsed = if source.is_peer() {
                0
            } else {
                let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                shared.telemetry.publish_ack_ns.record(ns);
                ns
            };
            shared
                .telemetry
                .trace(TraceKind::Publish, id, epoch, elapsed);
            Ok(())
        }
        Err(reject) => refuse(shared, id, writer, source.is_peer(), epoch, reject),
    }
}

/// Step 1 of [`ingest`]: may this connection hand the broker this
/// container at all? Runs before the state lock is taken — signature
/// checks are the expensive part and must not serialize the broker.
fn admit(
    shared: &Shared,
    peer_id: &Option<String>,
    source: Source<'_>,
    container: &pbcd_docs::BroadcastContainer,
    container_bytes: &[u8],
) -> Result<(), PublishReject> {
    let auth = shared
        .config
        .publisher_auth
        .as_ref()
        .filter(|a| a.is_required());
    let refusal = match source {
        Source::Unsigned => auth.map(|_| RejectReason::AuthRequired),
        Source::Signed { key_id, signature } => auth.and_then(|auth| {
            let msg =
                publish_auth_message(&container.document_name, container.epoch, container_bytes);
            auth.check(key_id, &msg, signature).reject_reason()
        }),
        Source::Peer { .. } if peer_id.is_none() => Some(RejectReason::NotAPeer),
        Source::Peer { origin, hops } => {
            let relay_config = shared
                .config
                .relay
                .as_ref()
                .expect("peer link accepted without relay config");
            let retained = {
                let state = shared.state.lock().expect("broker state");
                state.store.newest_epoch(&container.document_name)
            };
            // This verdict runs outside the state lock; a racing publish
            // can still make the epoch stale at retention time — the
            // in-lock recheck in `handle_publish` is the real guard.
            match relay_verdict(
                &relay_config.broker_id,
                retained,
                origin,
                hops,
                container.epoch,
                relay_config.max_hops,
            ) {
                RelayVerdict::Loop => Some(RejectReason::RelayLoop),
                RelayVerdict::Stale => Some(RejectReason::StaleHop),
                RelayVerdict::Accept => None,
            }
        }
    };
    match refusal {
        Some(reason) => Err(PublishReject::new(reason, reason.to_string())),
        None => Ok(()),
    }
}

/// The one place a refusal is counted, traced and answered: a typed
/// `Reject` that leaves the connection usable. `overlay` refusals (a
/// relayed container, a `PeerHello`) land in the relay-suppression
/// counters — the loop/idempotency machinery showing up as a number —
/// and everything else in `publishes_rejected`.
fn refuse(
    shared: &Shared,
    id: u64,
    writer: &mut ConnWriter,
    overlay: bool,
    epoch: u64,
    reject: PublishReject,
) -> Result<(), NetError> {
    let t = &shared.telemetry;
    if overlay {
        t.relays_suppressed.inc();
        match reject.reason {
            RejectReason::RelayLoop => t.suppressed_loop.inc(),
            RejectReason::StaleHop => t.suppressed_stale.inc(),
            RejectReason::NotAPeer => t.suppressed_not_peer.inc(),
            _ => {}
        }
    } else {
        t.publishes_rejected.inc();
    }
    t.trace(TraceKind::Reject, id, epoch, 0);
    let reject = Frame::Reject {
        reason: reject.reason,
        message: reject.detail,
    };
    writer.reply(shared, id, &reject)
}

/// A refused publish: the typed reason plus human-readable detail.
struct PublishReject {
    reason: RejectReason,
    detail: String,
}

impl PublishReject {
    fn new(reason: RejectReason, detail: impl Into<String>) -> Self {
        Self {
            reason,
            detail: detail.into(),
        }
    }
}

/// Retains the container (already-canonical `container_bytes`) and fans it
/// out by enqueueing one reference-counted `Deliver` body per matching
/// subscriber — plus, on a relay-enabled broker, one `Relay` body per live
/// outbound peer link (same bytes, hop count advanced). Returns the
/// fan-out (enqueue) count over local subscribers. The state lock is held
/// for map bookkeeping and queue pushes only — publish latency is enqueue
/// time, never a socket write.
fn handle_publish(
    shared: &Shared,
    container: &pbcd_docs::BroadcastContainer,
    container_bytes: Vec<u8>,
    source: Source<'_>,
) -> Result<u32, PublishReject> {
    let container_len = container_bytes.len();
    let deliver = Arc::new(deliver_body(&container_bytes));
    let summary = ConfigSummary {
        document_name: container.document_name.clone(),
        epoch: container.epoch,
        config_ids: container.groups.iter().map(|g| g.config_id).collect(),
        size_bytes: container_len as u64,
    };

    let fanout;
    let mut overflowed: Vec<u64> = Vec::new();
    {
        let mut state = shared.state.lock().expect("broker state");
        // Bound the retained store: a peer must not be able to grow broker
        // memory without limit by inventing document names. Updates to
        // already-retained documents always pass.
        if state.store.newest_epoch(&container.document_name).is_none()
            && state.store.document_count() >= shared.config.max_retained_documents
        {
            return Err(PublishReject::new(
                RejectReason::RetentionCap,
                format!(
                    "retained document cap {} reached",
                    shared.config.max_retained_documents
                ),
            ));
        }
        // Newest-epoch wins: replaying an older (e.g. pre-revocation)
        // container must not roll the retained state back. An unsigned
        // publish may repeat the retained epoch, so a publisher can
        // idempotently retry a lost Ack; signed and relayed epochs must be
        // strictly increasing, so a captured signed publish cannot even be
        // replayed at its own epoch. After a restart the comparison runs
        // against the epochs recovered from the log, so a durable broker's
        // monotonicity guard survives the crash.
        if let Some(existing) = state.store.newest_epoch(&container.document_name) {
            let stale = match source {
                Source::Unsigned => container.epoch < existing,
                Source::Signed { .. } | Source::Peer { .. } => container.epoch <= existing,
            };
            if stale {
                // For a peer this is the recheck of `relay_verdict`'s
                // staleness guard, surfaced under the relay taxonomy.
                let reason = if source.is_peer() {
                    RejectReason::StaleHop
                } else {
                    RejectReason::StaleEpoch
                };
                return Err(PublishReject::new(
                    reason,
                    format!(
                        "stale epoch {} (retained epoch is {})",
                        container.epoch, existing
                    ),
                ));
            }
        }
        let new_total =
            state
                .store
                .projected_bytes(&container.document_name, container.epoch, container_len);
        if new_total > shared.config.max_retained_bytes {
            return Err(PublishReject::new(
                RejectReason::RetentionCap,
                format!(
                    "retained byte cap {} would be exceeded",
                    shared.config.max_retained_bytes
                ),
            ));
        }
        // Durability point: the log append (and fsync, per policy) happens
        // here, before the Ack and before any fan-out enqueue. An append
        // failure rejects the publish with nothing retained — the
        // publisher may retry the same epoch once the disk recovers.
        if let Err(e) = state.store.retain(summary, Arc::clone(&deliver)) {
            return Err(PublishReject::new(
                RejectReason::StoreFailure,
                format!("retention log append failed: {e}"),
            ));
        }
        // Enqueue under the lock: pool pushes are non-blocking (state →
        // writer-shard is the sanctioned lock order), and doing them here
        // gives a total order — a replay enqueued by a racing subscribe
        // can never land *after* this fresher epoch.
        let enqueued_ns = shared.telemetry.registry.now_ns();
        let io = shared.io();
        let matching = state
            .subscribers
            .iter()
            .filter(|(_, sub)| sub.matches(&container.document_name))
            .map(|(sub_id, _)| *sub_id);
        fanout = io.writer.enqueue_fanout(
            shared,
            matching,
            &deliver,
            container.epoch,
            enqueued_ns,
            &mut overflowed,
        );
        // A full queue marks a consumer that cannot keep up: drop it here
        // (slow-consumer backpressure becomes disconnection, not publisher
        // latency).
        for sub_id in overflowed {
            remove_subscriber(shared, &mut state, sub_id, Some(DropCause::QueueOverflow));
        }
        // Overlay forwarding: advance the hop count and push the same
        // container bytes — verbatim — onto every live outbound peer
        // link's writer-pool slot, with a matching ack expectation on the
        // link thread's queue (both still under the lock, so relay order
        // is retained-state order and pool order equals expectation
        // order, exactly like subscriber fan-out). A full queue marks a
        // peer that cannot keep up: the link is dropped and its thread
        // reconnects + resyncs from the log, which replays everything
        // the drop skipped.
        if let Some(relay_config) = shared.config.relay.as_ref() {
            let (origin, hops_out) = match source {
                Source::Peer { origin, hops } => {
                    state.relay_meta.insert(
                        container.document_name.clone(),
                        RelayMeta {
                            origin: origin.to_string(),
                            hops,
                        },
                    );
                    (origin, hops.saturating_add(1))
                }
                _ => (relay_config.broker_id.as_str(), 1),
            };
            if !state.relay_links.is_empty() && hops_out <= relay_config.max_hops {
                let rbody = Arc::new(relay_body(origin, hops_out, &container_bytes));
                let enqueued_ns = shared.telemetry.registry.now_ns();
                let mut dead_links: Vec<u64> = Vec::new();
                for (link_id, link) in &state.relay_links {
                    let pushed = io.writer.enqueue(
                        shared,
                        *link_id,
                        PoolJob::Deliver {
                            body: Arc::clone(&rbody),
                            epoch: container.epoch,
                            enqueued_ns,
                        },
                    ) && link
                        .sender
                        .try_send(RelayJob {
                            epoch: container.epoch,
                            enqueued_ns: Some(enqueued_ns),
                        })
                        .is_ok();
                    if !pushed {
                        dead_links.push(*link_id);
                    }
                }
                for link_id in dead_links {
                    state.relay_links.remove(&link_id);
                    io.writer.remove(link_id);
                    shared.telemetry.relay_links_dropped.inc();
                    if let Some(conn) = state.connections.get(&link_id) {
                        let _ = conn.shutdown(Shutdown::Both);
                    }
                }
            }
        }
        // Counted inside the lock so a stats snapshot (which also runs
        // under this lock) can never see the retained bytes of a publish
        // without its `publishes` increment — the consistency contract.
        shared.telemetry.publishes.inc();
        if source.is_peer() {
            shared.telemetry.relays_accepted.inc();
        }
    }
    Ok(fanout)
}

/// Registers (or, on a live subscription, replaces) the document filter
/// and enqueues the `Ack` plus retained replays — the newest `depth`
/// epochs per matching document, oldest-first, so epoch-monotonic
/// receivers accept the whole history. A first subscribe and a
/// re-subscribe replay the same bodies in the same order.
///
/// Lock discipline: registration, the replay snapshot and the replay
/// enqueues all happen inside ONE state-lock critical section — and
/// publishes enqueue under the same lock — so no publish can interleave
/// and a subscriber can never see a stale retained container after a
/// fresher fan-out. No socket write happens under the lock; enqueues are
/// non-blocking pushes (state → writer-shard is the one sanctioned lock
/// order).
fn handle_subscribe(
    shared: &Shared,
    id: u64,
    writer: &mut ConnWriter,
    documents: Vec<String>,
    depth: usize,
) -> Result<(), NetError> {
    let ack = Frame::Ack {
        epoch: 0,
        fanout: 0,
    };
    let ack = PoolJob::Control(Arc::new(ack.encode()?));
    // First subscribe: the write half leaves the handler thread and
    // becomes a writer-pool slot (all further replies travel its queue).
    // Non-blocking from here on: O_NONBLOCK lives on the shared open file
    // description, so the read half the handler still holds flips too —
    // exactly what the reader pool expects at handoff.
    let first = match std::mem::replace(writer, ConnWriter::Queued) {
        ConnWriter::Direct(stream) => {
            stream.set_nonblocking(true)?;
            Some(stream)
        }
        ConnWriter::Queued => None,
    };
    let io = shared.io();
    let mut state = shared.state.lock().expect("broker state");
    let mut entry = SubEntry {
        depth: Arc::new(AtomicU64::new(0)),
        documents,
    };
    let replay = state.store.replay(|doc| entry.matches(doc), depth);
    match first {
        Some(stream) => {
            // The slot is sized to hold the Ack plus the *entire* matching
            // retained set on top of the configured live-queue budget, so
            // a broad subscriber can always take its replay however many
            // documents are retained. `subscriber_queue` remains the
            // backpressure bound for live fan-out on top of that.
            let capacity = shared.config.subscriber_queue + replay.len() + 1;
            let depth = Arc::clone(&entry.depth);
            if !io
                .writer
                .register(id, stream, SlotKind::Subscriber, capacity, depth)
            {
                return Err(NetError::protocol("broker shutting down"));
            }
        }
        // Re-subscription on a live connection: swap the filter and replay
        // through the existing pool slot, whose capacity was sized at
        // first subscribe.
        None => match state.subscribers.get(&id) {
            Some(existing) => entry.depth = Arc::clone(&existing.depth),
            // The subscription was dropped (overflow/write failure) while
            // this frame was in flight; the socket is already closing.
            None => return Err(NetError::protocol("subscription already dropped")),
        },
    }
    let enqueued_ns = shared.telemetry.registry.now_ns();
    let replay = replay.into_iter().map(|body| PoolJob::Deliver {
        body,
        epoch: 0,
        enqueued_ns,
    });
    for job in std::iter::once(ack).chain(replay) {
        if !io.writer.enqueue(shared, id, job) {
            // Cannot even hold the Ack + retained set: a re-subscribe
            // whose *new* replay no longer fits its slot (a first one fits
            // by construction, short of a racing shutdown). Dropped;
            // reconnecting fresh, or with a narrower filter, always works.
            remove_subscriber(shared, &mut state, id, Some(DropCause::ReplayOverflow));
            return Err(NetError::protocol("subscriber queue overflow on replay"));
        }
    }
    state.subscribers.insert(id, entry);
    Ok(())
}

/// Writes `length u32 ‖ body` honoring an absolute deadline across partial
/// writes (plain socket write timeouts re-arm on every syscall, which a
/// trickling receiver can exploit to hold a write open indefinitely).
pub(crate) fn write_body_deadline(
    stream: &mut TcpStream,
    body: &[u8],
    deadline: Option<Instant>,
) -> Result<(), NetError> {
    use std::io::Write;
    if body.len() > crate::frame::MAX_FRAME_LEN {
        return Err(NetError::protocol("frame body exceeds MAX_FRAME_LEN"));
    }
    let len = (body.len() as u32).to_be_bytes();
    write_all_deadline(stream, &len, deadline)?;
    write_all_deadline(stream, body, deadline)?;
    stream.flush()?;
    Ok(())
}

fn write_all_deadline(
    stream: &mut TcpStream,
    mut buf: &[u8],
    deadline: Option<Instant>,
) -> Result<(), NetError> {
    use std::io::Write;
    while !buf.is_empty() {
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Io {
                    kind: std::io::ErrorKind::TimedOut,
                    detail: "write deadline exceeded".into(),
                });
            }
            let _ = stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1))));
        }
        match stream.write(buf) {
            Ok(0) => {
                return Err(NetError::Io {
                    kind: std::io::ErrorKind::WriteZero,
                    detail: "socket refused bytes".into(),
                })
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
