//! Multi-broker dissemination overlay: the relay peering plane.
//!
//! Brokers federate into trees or meshes by dialing each other as
//! *peers*: an upstream broker (the dialer) maintains one outbound link
//! per configured peer address, and a downstream broker (the acceptor,
//! when [`RelayConfig::accept_peers`] is set) treats that connection as
//! a peer link after a `PeerHello` exchange. Containers then flow one
//! hop at a time — origin → edge → edge — with the origin's canonical
//! container bytes forwarded **verbatim** at every tier, so a subscriber
//! attached to any broker in the overlay receives byte-identical
//! `Deliver` frames (and signed containers verify at the origin only;
//! edges never re-sign or re-encode).
//!
//! # Link lifecycle
//!
//! Each outbound link is one thread running a connect → handshake →
//! catch-up → live-forward loop:
//!
//! 1. **Connect + handshake**: dial the peer, send `PeerHello` with this
//!    broker's overlay id, and expect the peer's `PeerHello` reply
//!    followed immediately by its `RelayCatchUp { known }` — the
//!    downstream's per-document retained high-water marks. (A `Reject`
//!    reply means the peer does not accept peering; the link backs off
//!    and retries, so config order between brokers does not matter.)
//! 2. **Cold-start catch-up**: under **one** state-lock critical section
//!    the link snapshots [`RetentionStore::catch_up`](crate::store::RetentionStore::catch_up) against `known`,
//!    registers the socket's write half as a writer-pool slot, enqueues
//!    every catch-up record onto it and registers its live
//!    ack-expectation queue. Atomicity is the point: the snapshot holds
//!    every epoch retained so far, later publishes enqueue strictly
//!    after it, and epochs increase under the same lock — so the two
//!    streams never overlap, never gap, and pool-write order equals
//!    expectation order (the FIFO ack-matching invariant).
//! 3. **Live forwarding**: the sharded writer pool drains the slot as
//!    fast as the peer's socket accepts frames, while this thread reads
//!    the peer's synchronous `Ack`/`Reject` verdicts and matches them
//!    FIFO against the expectation queue — pipelined forwarding with
//!    the bounded queue as the in-flight window. A typed `Reject`
//!    (`RelayLoop`/`StaleHop`) is the overlay working as designed —
//!    counted, never fatal. The enqueue→ack time of every acknowledged
//!    live forward feeds the relay-lag histogram.
//! 4. **Failure + reconnect**: any I/O error, protocol violation or a
//!    queue overflow (the broker drops the link's sender and closes its
//!    socket) unwinds the link back to step 1 after a jittered, capped
//!    exponential [`Backoff`] delay. The fresh handshake's `known` marks
//!    resync the peer from the retention log, replaying whatever the
//!    partition or queue drop skipped.
//!
//! # Loop suppression
//!
//! Cycles are legal in mesh topologies; three guards make them
//! terminate (all enforced on the *receiving* side, at the admission
//! step every inbound container passes, via [`relay_verdict`]):
//!
//! * **Origin id**: a container relayed back to the broker whose id it
//!   carries as origin is refused (`RelayLoop`).
//! * **Hop budget**: each forward advances the hop count; past 8 hops
//!   the container is refused (`RelayLoop`).
//!   Senders also stop forwarding once the *outgoing* hop count would
//!   exceed the budget, so a doomed frame is never even queued.
//! * **Epoch monotonicity**: a relayed epoch not strictly newer than the
//!   receiver's retained epoch is refused (`StaleHop`) — the idempotency
//!   backstop that also absorbs redundant mesh paths and catch-up/live
//!   races, and (because it is recovered from the log) survives broker
//!   restarts that lose the in-memory origin metadata.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbcd_telemetry::{Counter, TraceKind};

use crate::backoff::{Backoff, BackoffConfig};
use crate::broker::{RelayJob, RelayLink, Shared};
use crate::error::RejectReason;
use crate::frame::{read_frame, relay_body, write_frame, Frame, CONTAINER_OFFSET};
use crate::io_pool::{FrameAccum, PoolJob, ReadProgress, SlotKind};

/// Hop budget: a container whose hop count would exceed this is not
/// forwarded, and one *arriving* past it is refused. Bounds how far a
/// frame can travel even in a topology with undetected cycles.
pub(crate) const MAX_HOPS: u8 = 8;

/// Bound of each outbound link's live forward queue. A peer that cannot
/// drain this fast is dropped and resynced from the log — slow-peer
/// backpressure becomes reconnection, never publisher latency.
const PEER_QUEUE: usize = 64;

/// How long a link waits for the peer's `Ack`/`Reject` to one relay (and
/// for each handshake frame) before declaring the link dead.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// Overlay knobs for one broker: its identity, who it forwards to, and
/// whether it accepts inbound peer links. Setting
/// [`BrokerConfig::relay`](crate::BrokerConfig::relay) to `Some` turns
/// the relay plane on; `None` (the default) leaves the broker flat and
/// rejects all overlay frames as [`RejectReason::NotAPeer`].
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// This broker's overlay identity — stamped as the origin on locally
    /// published containers and matched for loop suppression. **Must be
    /// unique across the overlay**: two brokers sharing an id will
    /// suppress each other's containers as loops.
    pub broker_id: String,
    /// Downstream peer addresses to dial. Each gets a dedicated link
    /// thread with reconnect + log-backed resync; more can be attached
    /// at runtime via
    /// [`BrokerHandle::add_peer`](crate::BrokerHandle::add_peer).
    pub peers: Vec<String>,
    /// Accept inbound peer links (`PeerHello`) on this broker. Leaf
    /// brokers that only dial upstream can leave this off.
    pub accept_peers: bool,
    /// Reconnect backoff policy for the link threads.
    pub backoff: BackoffConfig,
}

impl RelayConfig {
    /// A relay plane with the given overlay id and default knobs:
    /// no peers yet, inbound peering accepted.
    pub fn new(broker_id: impl Into<String>) -> Self {
        Self {
            broker_id: broker_id.into(),
            ..Self::default()
        }
    }
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            broker_id: "broker".into(),
            peers: Vec::new(),
            accept_peers: true,
            backoff: BackoffConfig::default(),
        }
    }
}

/// What the receiving side of the overlay decides about one inbound
/// relayed container. Pure data so the decision procedure is testable
/// (and property-testable) without sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayVerdict {
    /// Retain and forward: new document or strictly newer epoch, hop
    /// budget intact, not our own container coming back.
    Accept,
    /// Loop suppressed: the container originated here, or its hop count
    /// is forged (`0`) or past the budget. Maps to
    /// [`RejectReason::RelayLoop`].
    Loop,
    /// Duplicate suppressed: the epoch is not strictly newer than the
    /// retained one. Maps to [`RejectReason::StaleHop`].
    Stale,
}

/// The overlay's receive-side decision procedure: given this broker's
/// overlay id and retained epoch for the document, judge an inbound
/// relay carrying `(origin, hops, epoch)` under the `max_hops` budget.
///
/// Order matters: loop checks run before staleness, so a container
/// returning to its origin is counted as a suppressed *loop* even when
/// it is also (necessarily) stale — the loop guard is the invariant
/// under test in cyclic topologies, staleness its backstop.
pub fn relay_verdict(
    my_id: &str,
    retained_epoch: Option<u64>,
    origin: &str,
    hops: u8,
    epoch: u64,
    max_hops: u8,
) -> RelayVerdict {
    if origin == my_id || hops == 0 || hops > max_hops {
        return RelayVerdict::Loop;
    }
    if retained_epoch.is_some_and(|retained| epoch <= retained) {
        return RelayVerdict::Stale;
    }
    RelayVerdict::Accept
}

/// Spawns the dedicated thread for one outbound peer link on the
/// broker's server (so shutdown joins it).
pub(crate) fn spawn_link(shared: &Arc<Shared>, peer: String) -> io::Result<()> {
    let thread_shared = Arc::clone(shared);
    shared
        .server
        .spawn(format!("pbcd-relay-link-{peer}"), move || {
            link_loop(&thread_shared, &peer)
        })
}

/// One document's worth of catch-up stream: re-stamped origin and hop
/// count, the epoch, and the pre-framed `Deliver` body whose container
/// tail is re-framed into a `Relay` body.
type CatchUpRecord = (String, u8, u64, Arc<Vec<u8>>);

/// Per-peer telemetry handles threaded through one link's lifetime —
/// registered once per peer address, reused across reconnects.
struct LinkStats {
    forwarded: Counter,
    rejected: Counter,
}

/// How one connection attempt ended, which decides the backoff policy.
enum LinkExit {
    /// The broker is shutting down — stop retrying.
    Shutdown,
    /// Never got past the handshake — keep backing off exponentially.
    NotEstablished,
    /// Was live (or at least registered) before failing — reset the
    /// backoff so a flapping-but-mostly-healthy peer reattaches fast.
    Established,
}

/// Outer reconnect loop for one peer: connect attempts separated by
/// jittered capped exponential backoff, sliced so shutdown is prompt.
fn link_loop(shared: &Shared, peer: &str) {
    let relay_config = shared
        .config
        .relay
        .clone()
        .expect("relay link spawned without relay config");
    // Per-peer telemetry: registered lazily here (peer sets are dynamic)
    // but reused across every reconnect of this link.
    let registry = &shared.telemetry.registry;
    let stats = LinkStats {
        forwarded: registry.counter(&format!("broker_relay_forwarded_total{{peer=\"{peer}\"}}")),
        rejected: registry.counter(&format!("broker_relay_rejected_total{{peer=\"{peer}\"}}")),
    };
    let mut backoff = Backoff::new(relay_config.backoff);
    while !shared.server.is_stopping() {
        match run_link_once(shared, peer, &relay_config, &stats) {
            LinkExit::Shutdown => break,
            LinkExit::Established => backoff.reset(),
            LinkExit::NotEstablished => {}
        }
        sleep_interruptibly(shared, backoff.next_delay());
    }
}

/// Sleeps `total` in small slices, returning early once shutdown is
/// flagged — a link backing off must not stall broker shutdown.
fn sleep_interruptibly(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    while !shared.server.is_stopping() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return;
        }
        std::thread::sleep(remaining.min(Duration::from_millis(50)));
    }
}

/// One full link lifetime: connect, handshake, catch-up, live-forward,
/// deregister. Every exit path removes the link from broker state and
/// from the server's connection table.
fn run_link_once(
    shared: &Shared,
    peer: &str,
    relay_config: &RelayConfig,
    stats: &LinkStats,
) -> LinkExit {
    // Resolve + connect with a bounded timeout so an unreachable peer
    // costs one timeout per attempt, not a hung thread.
    let connect_timeout = ACK_TIMEOUT.min(Duration::from_secs(5));
    let Some(addr) = peer.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return LinkExit::NotEstablished;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, connect_timeout) else {
        return LinkExit::NotEstablished;
    };
    let _ = stream.set_nodelay(true);
    // Handshake frames and per-relay verdicts share the ack timeout.
    let _ = stream.set_read_timeout(Some(ACK_TIMEOUT));

    // Track the socket in the broker's connection table so shutdown's
    // sweep closes it (unblocking any read this thread is parked in).
    let link_id = shared.server.next_id();
    if !shared.server.track(link_id, &stream) {
        return LinkExit::NotEstablished;
    }

    let exit = drive_link(shared, &mut stream, link_id, relay_config, stats);

    let mut state = shared.state.lock().expect("broker state");
    state.relay_links.remove(&link_id);
    // Idempotent: the pool's write-failure path may already have dropped
    // the slot (state → writer-shard is the sanctioned lock order).
    shared.io().writer.remove(link_id);
    shared.server.close(link_id);
    exit
}

/// Handshake + catch-up + live forwarding over an established socket.
fn drive_link(
    shared: &Shared,
    stream: &mut TcpStream,
    link_id: u64,
    relay_config: &RelayConfig,
    stats: &LinkStats,
) -> LinkExit {
    // --- Handshake -------------------------------------------------
    let hello = Frame::PeerHello {
        broker_id: relay_config.broker_id.clone(),
    };
    if write_frame(stream, &hello).is_err() {
        return LinkExit::NotEstablished;
    }
    match read_frame(stream) {
        Ok(Frame::PeerHello { .. }) => {}
        // A typed Reject means the peer refuses peering (relay disabled
        // or accept_peers off) — back off and retry; it may be a broker
        // that simply has not finished configuring yet.
        _ => return LinkExit::NotEstablished,
    }
    let known: BTreeMap<String, u64> = match read_frame(stream) {
        Ok(Frame::RelayCatchUp { known }) => known.into_iter().collect(),
        _ => return LinkExit::NotEstablished,
    };

    // --- Writer-pool handoff ----------------------------------------
    // The write half becomes a `RelayLink` pool slot and this thread
    // turns into the link's ack reader. `O_NONBLOCK` lives on the shared
    // open file description, so flipping it here converts our read half
    // too — verdicts are polled through a `FrameAccum` from now on.
    let Ok(wstream) = stream.try_clone() else {
        return LinkExit::NotEstablished;
    };
    if stream.set_nonblocking(true).is_err() {
        return LinkExit::NotEstablished;
    }

    // --- Atomic catch-up snapshot + live registration --------------
    // One critical section: records retained so far are re-framed and
    // enqueued onto the pool slot, every later publish enqueues strictly
    // after them, and epochs grow under this same lock — so the two
    // streams cannot overlap and pool-write order equals ack-expectation
    // order (the FIFO matching invariant). The slot is sized to hold the
    // whole catch-up set (the broker's full history depth per document)
    // on top of the live window, exactly like a subscriber slot holds its
    // replay. A link that gets here during shutdown has a socket the
    // sweep already shut: the pool refuses its slot, or its first poll
    // below sees the flag.
    let receiver: Receiver<RelayJob> = {
        let mut state = shared.state.lock().expect("broker state");
        let records: Vec<CatchUpRecord> = state
            .store
            .catch_up(&known, shared.config.history_depth)
            .into_iter()
            .filter_map(|(doc, epoch, deliver)| {
                // Re-stamp provenance: relayed documents keep their
                // origin with the hop advanced; local documents (no
                // meta) originate here. Hop-exhausted records are not
                // worth the bytes — the peer would refuse them.
                let (origin, hops) = match state.relay_meta.get(&doc) {
                    Some(meta) => (meta.origin.clone(), meta.hops.saturating_add(1)),
                    None => (relay_config.broker_id.clone(), 1),
                };
                (hops <= MAX_HOPS).then_some((origin, hops, epoch, deliver))
            })
            .collect();
        let capacity = PEER_QUEUE + records.len();
        let io = shared.io();
        if !io.writer.register(
            link_id,
            wstream,
            SlotKind::RelayLink,
            capacity,
            Arc::new(AtomicU64::new(0)),
        ) {
            return LinkExit::Shutdown;
        }
        let (sender, receiver) = std::sync::mpsc::sync_channel(capacity);
        let enqueued_ns = shared.telemetry.registry.now_ns();
        for (origin, hops, epoch, deliver) in records {
            let body = Arc::new(relay_body(&origin, hops, &deliver[CONTAINER_OFFSET..]));
            let pushed = io.writer.enqueue(
                shared,
                link_id,
                PoolJob::Deliver {
                    body,
                    epoch,
                    enqueued_ns,
                },
            ) && sender
                .try_send(RelayJob {
                    epoch,
                    enqueued_ns: None,
                })
                .is_ok();
            if !pushed {
                // Fits by construction; a failure means shutdown raced us.
                io.writer.remove(link_id);
                return LinkExit::Established;
            }
        }
        state.relay_links.insert(link_id, RelayLink { sender });
        receiver
    };

    // --- Ack reading ------------------------------------------------
    // The pool writes frames as fast as the peer's socket accepts them;
    // this thread matches the peer's synchronous verdicts FIFO against
    // the expectation queue — pipelined forwarding with the bounded
    // queue as the in-flight window (a slow peer backpressures into the
    // queue and from there into an overflow drop, never into unbounded
    // socket buffering).
    let mut accum = FrameAccum::new();
    loop {
        // Poll the shutdown flag between jobs: the expectation sender
        // lives in broker state and is dropped by shutdown (and by the
        // overflow drop), which wakes this recv with `Disconnected`.
        match receiver.recv_timeout(Duration::from_millis(200)) {
            Ok(job) => match read_verdict(shared, stream, &mut accum) {
                Some(Frame::Ack { .. }) => {
                    stats.forwarded.inc();
                    shared.telemetry.relays_forwarded.inc();
                    let lag_ns = match job.enqueued_ns {
                        Some(start_ns) => {
                            let lag = shared.telemetry.registry.now_ns().saturating_sub(start_ns);
                            shared.telemetry.relay_lag_ns.record(lag);
                            lag
                        }
                        None => {
                            shared.telemetry.relay_catch_up_records.inc();
                            0
                        }
                    };
                    shared
                        .telemetry
                        .trace(TraceKind::Relay, link_id, job.epoch, lag_ns);
                }
                // A typed refusal is the overlay taxonomy working —
                // normal in meshes and during catch-up/live overlap.
                Some(Frame::Reject {
                    reason: RejectReason::RelayLoop | RejectReason::StaleHop,
                    ..
                }) => {
                    stats.rejected.inc();
                }
                // Timeout, close, or protocol garbage: tear the link
                // down and resync on reconnect.
                _ => return LinkExit::Established,
            },
            Err(RecvTimeoutError::Timeout) => {
                if shared.server.is_stopping() {
                    return LinkExit::Shutdown;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return if shared.server.is_stopping() {
                    LinkExit::Shutdown
                } else {
                    // Overflow or write-failure drop: the broker removed
                    // this link. Reconnect and resync from the log.
                    LinkExit::Established
                };
            }
        }
    }
}

/// Polls one verdict frame out of the (non-blocking) link socket,
/// honoring the ack timeout. `None` means the link is dead — timed out,
/// closed, or speaking garbage.
fn read_verdict(shared: &Shared, stream: &mut TcpStream, accum: &mut FrameAccum) -> Option<Frame> {
    let deadline = Instant::now() + ACK_TIMEOUT;
    loop {
        match accum.poll(stream) {
            Ok(ReadProgress::Frame(body)) => return Frame::decode(&body).ok(),
            Ok(ReadProgress::Pending) => {
                if shared.server.is_stopping() || Instant::now() >= deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(ReadProgress::Closed) | Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accepts_fresh_foreign_containers() {
        assert_eq!(
            relay_verdict("edge-1", None, "origin", 1, 10, 8),
            RelayVerdict::Accept
        );
        assert_eq!(
            relay_verdict("edge-1", Some(9), "origin", 3, 10, 8),
            RelayVerdict::Accept
        );
    }

    #[test]
    fn verdict_suppresses_own_origin_as_loop() {
        assert_eq!(
            relay_verdict("origin", Some(1), "origin", 2, 10, 8),
            RelayVerdict::Loop
        );
        // Loop wins over staleness: a returning container is counted as
        // the loop it is, not as a mere duplicate.
        assert_eq!(
            relay_verdict("origin", Some(10), "origin", 2, 10, 8),
            RelayVerdict::Loop
        );
    }

    #[test]
    fn verdict_enforces_hop_budget_and_rejects_forged_zero() {
        assert_eq!(
            relay_verdict("edge", None, "origin", 9, 10, 8),
            RelayVerdict::Loop
        );
        assert_eq!(
            relay_verdict("edge", None, "origin", 8, 10, 8),
            RelayVerdict::Accept
        );
        // hops=0 cannot be produced by a conforming sender (origins
        // stamp 1): treat it as a forgery, not infinite budget.
        assert_eq!(
            relay_verdict("edge", None, "origin", 0, 10, 8),
            RelayVerdict::Loop
        );
    }

    #[test]
    fn verdict_suppresses_non_monotonic_epochs_as_stale() {
        assert_eq!(
            relay_verdict("edge", Some(10), "origin", 2, 10, 8),
            RelayVerdict::Stale
        );
        assert_eq!(
            relay_verdict("edge", Some(10), "origin", 2, 9, 8),
            RelayVerdict::Stale
        );
        assert_eq!(
            relay_verdict("edge", Some(10), "origin", 2, 11, 8),
            RelayVerdict::Accept
        );
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = RelayConfig::new("hub");
        assert_eq!(c.broker_id, "hub");
        assert!(c.peers.is_empty());
        assert!(c.accept_peers);
        assert_eq!(MAX_HOPS, 8);
        assert_eq!(PEER_QUEUE, 64);
        assert_eq!(ACK_TIMEOUT, Duration::from_secs(30));
    }
}
