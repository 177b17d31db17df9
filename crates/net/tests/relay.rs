//! Multi-broker overlay semantics over real loopback TCP: tiered
//! dissemination with byte-identical containers at every tier, loop
//! suppression in a deliberately cyclic topology, log-backed cold start
//! of a late-attached edge, the whole client protocol against a
//! relay-enabled broker, and the non-fatal `NotAPeer` taxonomy for
//! overlay frames from non-peers.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::{
    read_frame, write_frame, Broker, BrokerClient, BrokerConfig, BrokerHandle, Frame, FsyncPolicy,
    NetError, PeerRole, RejectReason, RelayConfig,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn container(doc: &str, epoch: u64) -> BroadcastContainer {
    BroadcastContainer {
        epoch,
        document_name: doc.to_string(),
        skeleton_xml: format!("<r><pbcd-segment id=\"0\"/><!--{epoch}--></r>"),
        groups: vec![EncryptedGroup {
            config_id: 0,
            key_info: vec![0xAB; 32],
            segments: vec![EncryptedSegment {
                segment_id: 0,
                tag: "Record".into(),
                ciphertext: vec![epoch as u8; 96],
            }],
        }],
    }
}

fn scratch_log(tag: &str) -> (PathBuf, ScratchGuard) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("pbcd-relay-{tag}-{}-{n}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    (path.clone(), ScratchGuard(path))
}

struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut compact = self.0.as_os_str().to_os_string();
        compact.push(".compact");
        let _ = std::fs::remove_file(compact);
    }
}

/// Fast-reconnect relay plane for tests: identical semantics, impatient
/// timers.
fn relay(id: &str) -> RelayConfig {
    RelayConfig {
        backoff: pbcd_net::BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        },
        ..RelayConfig::new(id)
    }
}

fn broker_with(relay: RelayConfig, config: BrokerConfig) -> BrokerHandle {
    Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            relay: Some(relay),
            ..config
        },
    )
    .unwrap()
}

/// Polls `pred` for up to `secs` seconds; panics with `what` on timeout.
fn wait_until(what: &str, secs: u64, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Receives `n` deliveries (bounded wait) and returns their canonical
/// encodings — the byte-identity currency of the overlay tests. The
/// frame decode is strict and the encode canonical, so these bytes are
/// exactly the container bytes that crossed the wire.
fn delivered_bytes(client: &mut BrokerClient, n: usize) -> Vec<Vec<u8>> {
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (0..n)
        .map(|_| client.next_delivery().unwrap().encode().unwrap())
        .collect()
}

/// Tentpole acceptance #1: origin → edge → edge chain. Subscribers at
/// every tier receive the publisher's container bytes verbatim, and the
/// per-tier counters account for every forward exactly once.
#[test]
fn three_tier_chain_delivers_byte_identical_containers() {
    // Build leaf-first so each dialer has an address to dial; the
    // overlay itself does not care (links retry until the peer exists).
    let tier3 = broker_with(relay("tier3"), BrokerConfig::default());
    let tier2 = broker_with(
        RelayConfig {
            peers: vec![tier3.addr().to_string()],
            ..relay("tier2")
        },
        BrokerConfig::default(),
    );
    let origin = broker_with(
        RelayConfig {
            peers: vec![tier2.addr().to_string()],
            accept_peers: false,
            ..relay("origin")
        },
        BrokerConfig::default(),
    );

    // With the default history depth (1) a pre-link publish would reach
    // the edges only as the newest epoch per document; wait for the
    // links so all three publishes travel the live path in order.
    wait_until("chain links up", 30, || {
        origin.stats().relay_links == 1 && tier2.stats().relay_links == 1
    });

    let mut subs: Vec<BrokerClient> = [&origin, &tier2, &tier3]
        .iter()
        .map(|b| {
            let mut c = BrokerClient::connect(b.addr(), PeerRole::Subscriber).unwrap();
            c.subscribe(&["a.xml", "b.xml"]).unwrap();
            c
        })
        .collect();

    let mut publisher = BrokerClient::connect(origin.addr(), PeerRole::Publisher).unwrap();
    let published: Vec<Vec<u8>> = [("a.xml", 1), ("b.xml", 1), ("a.xml", 2)]
        .iter()
        .map(|(doc, epoch)| {
            let c = container(doc, *epoch);
            publisher.publish(&c).unwrap();
            c.encode().unwrap()
        })
        .collect();

    // Every tier — including the origin's own subscribers — sees the
    // same bytes in the same order (per-hop forwarding preserves the
    // publish order: one link queue, drained in order).
    for sub in &mut subs {
        assert_eq!(delivered_bytes(sub, 3), published);
    }

    // Counter accounting: 3 forwards down each of the 2 links, 3
    // accepts at each of the 2 edges, no suppressions anywhere. A link
    // counts a forward when it reads the peer's Ack, which the peer sends
    // after counting the accept, so each accept below already holds; the
    // predicates name them anyway, so every counter asserted after a wait
    // is one the wait covered.
    wait_until("origin forwards", 30, || {
        origin.stats().relays_forwarded == 3 && tier2.stats().relays_accepted == 3
    });
    wait_until("tier2 forwards", 30, || {
        tier2.stats().relays_forwarded == 3 && tier3.stats().relays_accepted == 3
    });
    assert_eq!(tier2.stats().relays_accepted, 3);
    assert_eq!(tier3.stats().relays_accepted, 3);
    assert_eq!(origin.stats().relays_suppressed, 0);
    assert_eq!(tier3.stats().relays_forwarded, 0);
    assert_eq!(origin.stats().relay_links, 1);
    assert_eq!(tier2.stats().relay_links, 1);

    origin.shutdown();
    tier2.shutdown();
    tier3.shutdown();
}

/// Tentpole acceptance #2: a deliberately cyclic topology (a → b → c →
/// a ring). Every broker converges to the published container exactly
/// once, and the container's return to its origin is suppressed as a
/// typed, non-fatal `RelayLoop`.
#[test]
fn relay_cycle_is_suppressed_at_the_origin() {
    let a = broker_with(relay("ring-a"), BrokerConfig::default());
    let b = broker_with(relay("ring-b"), BrokerConfig::default());
    let c = broker_with(relay("ring-c"), BrokerConfig::default());
    a.add_peer(b.addr().to_string()).unwrap();
    b.add_peer(c.addr().to_string()).unwrap();
    c.add_peer(a.addr().to_string()).unwrap();

    let mut publisher = BrokerClient::connect(a.addr(), PeerRole::Publisher).unwrap();
    let bytes = {
        let cont = container("ring.xml", 7);
        publisher.publish(&cont).unwrap();
        cont.encode().unwrap()
    };

    // The container circles the ring: accepted at b and c, then refused
    // when c forwards it back to a (origin-id match).
    wait_until("ring convergence", 30, || {
        b.stats().relays_accepted == 1
            && c.stats().relays_accepted == 1
            && a.stats().relays_suppressed >= 1
    });
    // The loop guard fired at the origin; nothing was double-retained.
    assert_eq!(a.stats().publishes, 1);
    assert_eq!(a.stats().relays_accepted, 0);

    // All three brokers retain the identical bytes.
    for broker in [&a, &b, &c] {
        let mut sub = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
        sub.subscribe(&["ring.xml"]).unwrap();
        assert_eq!(delivered_bytes(&mut sub, 1), vec![bytes.clone()]);
    }
    // Suppression is non-fatal: the ring links are all still up.
    for broker in [&a, &b, &c] {
        assert_eq!(broker.stats().relay_links, 1);
    }

    a.shutdown();
    b.shutdown();
    c.shutdown();
}

/// Tentpole acceptance #3: an edge attached *after* N publishes
/// converges to the origin's exact retained set (multi-epoch, multi-
/// document) by streaming the upstream's retention log through
/// `RelayCatchUp` — and live publishes after attachment keep flowing.
#[test]
fn late_edge_cold_starts_from_the_retention_log() {
    let (path, _guard) = scratch_log("cold-start");
    let origin = broker_with(
        relay("cs-origin"),
        BrokerConfig {
            store_path: Some(path),
            fsync: FsyncPolicy::Off,
            history_depth: 3,
            ..BrokerConfig::default()
        },
    );

    // N publishes while no edge exists: doc a gets epochs 1..=4 (depth 3
    // retains 2,3,4), doc b gets 1..=2.
    let mut publisher = BrokerClient::connect(origin.addr(), PeerRole::Publisher).unwrap();
    for epoch in 1..=4u64 {
        publisher.publish(&container("a.xml", epoch)).unwrap();
    }
    for epoch in 1..=2u64 {
        publisher.publish(&container("b.xml", epoch)).unwrap();
    }

    // The edge attaches late and cold-starts entirely from the log.
    let edge = broker_with(
        relay("cs-edge"),
        BrokerConfig {
            history_depth: 3,
            ..BrokerConfig::default()
        },
    );
    origin.add_peer(edge.addr().to_string()).unwrap();
    // The origin counts a catch-up record only when its link reads the
    // edge's Ack, after the edge has counted the publish: wait for both.
    wait_until("edge convergence", 30, || {
        edge.stats().publishes == 5 && origin.stats().relay_catch_up_records == 5
    });
    assert_eq!(origin.stats().relay_catch_up_records, 5);
    assert_eq!(edge.stats().relays_accepted, 5);

    // The edge's retained set is identical to the origin's: same
    // summaries, and a history subscriber replays the same window
    // oldest-first at both tiers.
    let mut at_origin = BrokerClient::connect(origin.addr(), PeerRole::Subscriber).unwrap();
    let mut at_edge = BrokerClient::connect(edge.addr(), PeerRole::Subscriber).unwrap();
    assert_eq!(
        at_origin.list_configs().unwrap(),
        at_edge.list_configs().unwrap()
    );
    at_origin.subscribe_with_history(&[] as &[&str], 3).unwrap();
    at_edge.subscribe_with_history(&[] as &[&str], 3).unwrap();
    assert_eq!(
        delivered_bytes(&mut at_origin, 5),
        delivered_bytes(&mut at_edge, 5)
    );

    // Going live after catch-up: a fresh publish reaches the edge's
    // subscriber through the already-open link.
    publisher.publish(&container("a.xml", 9)).unwrap();
    assert_eq!(at_edge.next_delivery().unwrap().epoch, 9);
    assert_eq!(at_origin.next_delivery().unwrap().epoch, 9);

    origin.shutdown();
    edge.shutdown();
}

/// A link dialing an address where nothing listens yet keeps retrying
/// under backoff and cold-starts the moment the peer appears — the
/// partition-recovery path, compressed (the "partition" is the peer not
/// existing yet).
#[test]
fn link_retries_under_backoff_until_the_peer_appears() {
    // Reserve an address, then free it: the origin dials into the void.
    let parked = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = parked.local_addr().unwrap();
    drop(parked);

    let origin = broker_with(
        RelayConfig {
            peers: vec![addr.to_string()],
            ..relay("patient")
        },
        BrokerConfig::default(),
    );
    let mut publisher = BrokerClient::connect(origin.addr(), PeerRole::Publisher).unwrap();
    publisher.publish(&container("late.xml", 1)).unwrap();
    // Let several connect attempts fail before the peer materializes.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(origin.stats().relay_links, 0);

    let edge = Broker::bind_with(
        &addr.to_string(),
        BrokerConfig {
            relay: Some(relay("appears")),
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    // The origin counts the catch-up record only when its link reads the
    // edge's Ack, after the edge has counted the accept: wait for both.
    wait_until("link up + resync", 30, || {
        origin.stats().relay_links == 1
            && edge.stats().relays_accepted == 1
            && origin.stats().relay_catch_up_records == 1
    });
    assert_eq!(origin.stats().relay_catch_up_records, 1);

    origin.shutdown();
    edge.shutdown();
}

/// Satellite: clients are served unchanged by a relay-enabled broker
/// over a live socket — publish, subscribe, history replay, config
/// listing and the stats scrape all behave exactly as against a flat
/// broker.
#[test]
fn clients_interoperate_with_a_relay_enabled_broker() {
    let broker = broker_with(
        relay("hub"),
        BrokerConfig {
            history_depth: 2,
            ..BrokerConfig::default()
        },
    );

    // Publish + list_configs.
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    for epoch in 1..=3u64 {
        publisher.publish(&container("doc.xml", epoch)).unwrap();
    }
    assert_eq!(publisher.list_configs().unwrap().len(), 1);

    // History replay.
    let mut sub = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    sub.subscribe_with_history(&["doc.xml"], 2).unwrap();
    let epochs: Vec<u64> = delivered_bytes(&mut sub, 2)
        .iter()
        .map(|bytes| BroadcastContainer::decode(bytes).unwrap().epoch)
        .collect();
    assert_eq!(epochs, vec![2, 3]);

    // The stats scrape works and exposes the relay plane's gauges.
    let text = publisher.stats().unwrap();
    assert!(text.contains("broker_relay_links"));
    assert!(text.contains("broker_relays_forwarded_total"));

    broker.shutdown();
}

/// Satellite: overlay frames from non-peers draw typed, *non-fatal*
/// `NotAPeer` rejections — on a flat broker (no relay config) and on a
/// relay broker from a connection that never said `PeerHello` — and the
/// connection remains fully usable afterwards.
#[test]
fn overlay_frames_from_non_peers_reject_non_fatally() {
    // Flat broker: PeerHello itself is refused.
    let flat = Broker::bind("127.0.0.1:0").unwrap();
    let mut raw = TcpStream::connect(flat.addr()).unwrap();
    write_frame(
        &mut raw,
        &Frame::PeerHello {
            broker_id: "intruder".into(),
        },
    )
    .unwrap();
    match read_frame(&mut raw).unwrap() {
        Frame::Reject { reason, .. } => assert_eq!(reason, RejectReason::NotAPeer),
        other => panic!("expected NotAPeer reject, got {other:?}"),
    }
    // …and the same connection still speaks the client protocol.
    write_frame(
        &mut raw,
        &Frame::Hello {
            role: PeerRole::Publisher,
        },
    )
    .unwrap();
    assert!(matches!(read_frame(&mut raw).unwrap(), Frame::Hello { .. }));
    flat.shutdown();

    // Relay broker: a Relay frame before PeerHello is NotAPeer; after
    // the handshake the same frame is honored.
    let hub = broker_with(relay("guarded"), BrokerConfig::default());
    let mut peer = TcpStream::connect(hub.addr()).unwrap();
    let relay_frame = Frame::Relay {
        origin: "elsewhere".into(),
        hops: 1,
        container: container("doc.xml", 1),
    };
    write_frame(&mut peer, &relay_frame).unwrap();
    match read_frame(&mut peer).unwrap() {
        Frame::Reject { reason, .. } => assert_eq!(reason, RejectReason::NotAPeer),
        other => panic!("expected NotAPeer reject, got {other:?}"),
    }
    write_frame(
        &mut peer,
        &Frame::PeerHello {
            broker_id: "edge".into(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut peer).unwrap(),
        Frame::PeerHello { .. }
    ));
    assert!(matches!(
        read_frame(&mut peer).unwrap(),
        Frame::RelayCatchUp { .. }
    ));
    write_frame(&mut peer, &relay_frame).unwrap();
    assert!(matches!(read_frame(&mut peer).unwrap(), Frame::Ack { .. }));
    assert_eq!(hub.stats().relays_accepted, 1);
    assert!(hub.stats().relays_suppressed >= 1);
    hub.shutdown();
}

/// The client-side face of the backoff satellite: `connect_with_backoff`
/// rides out a broker that is not up yet, and still fails fast on a
/// typed protocol refusal.
#[test]
fn client_connect_with_backoff_rides_out_a_slow_broker_start() {
    let parked = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = parked.local_addr().unwrap();
    drop(parked);

    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        Broker::bind_with(&addr.to_string(), BrokerConfig::default()).unwrap()
    });
    let backoff = pbcd_net::BackoffConfig {
        base: Duration::from_millis(20),
        cap: Duration::from_millis(100),
    };
    let client =
        BrokerClient::connect_with_backoff(addr, PeerRole::Subscriber, backoff, 50).unwrap();
    drop(client);
    let broker = starter.join().unwrap();
    broker.shutdown();

    // Exhausted attempts surface the last connection error.
    let gone = BrokerClient::connect_with_backoff(addr, PeerRole::Subscriber, backoff, 2);
    assert!(matches!(gone, Err(NetError::Io { .. })));
}
