//! Broker behaviour tests over real loopback sockets: retention, fan-out,
//! topic filtering, replay, per-connection error isolation and graceful
//! shutdown. No crypto here — containers carry opaque bytes, exactly what
//! the broker sees in production.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::{
    read_frame, write_frame, Broker, BrokerClient, BrokerConfig, Frame, NetError, PeerRole,
    RejectReason, PROTOCOL_VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

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
                ciphertext: vec![epoch as u8; 128],
            }],
        }],
    }
}

#[test]
fn fan_out_reaches_matching_subscribers_only() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut on_topic = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    on_topic.subscribe(&["ehr.xml"]).unwrap();
    let mut wildcard = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    wildcard.subscribe::<&str>(&[]).unwrap();
    let mut off_topic = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    off_topic.subscribe(&["news.xml"]).unwrap();

    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    let c = container("ehr.xml", 1);
    let receipt = publisher.publish(&c).unwrap();
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.fanout, 2, "on-topic + wildcard, not off-topic");

    assert_eq!(on_topic.next_delivery().unwrap(), c);
    assert_eq!(wildcard.next_delivery().unwrap(), c);
    off_topic
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    assert!(matches!(
        off_topic.next_delivery(),
        Err(NetError::Io { .. })
    ));

    // Deliveries are counted by the writer threads just after the socket
    // write, so poll briefly instead of assuming instant visibility.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while broker.stats().deliveries < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = broker.stats();
    assert_eq!(stats.publishes, 1);
    assert_eq!(stats.deliveries, 2);
    broker.shutdown();
}

/// The slow-consumer isolation guarantee: one stalled subscriber must not
/// delay delivery to 16 healthy ones, and publish latency stays bounded by
/// enqueue time — not by `write_timeout`. Under the old sequential
/// fan-out, the first publish after the stalled peer's buffers filled
/// blocked the publishing thread for the whole write deadline (30 s here);
/// with per-subscriber writer queues it returns in milliseconds and the
/// stalled peer alone is dropped on queue overflow.
#[test]
fn stalled_subscriber_does_not_delay_healthy_ones() {
    const HEALTHY: usize = 16;
    const PUBLISHES: u64 = 16;
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            // Deliberately enormous: if publish latency were coupled to the
            // write deadline, this test would blow its time budget.
            write_timeout: Some(Duration::from_secs(30)),
            subscriber_queue: 4,
            max_retained_bytes: 1024 * 1024 * 1024,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let addr = broker.addr();

    // A half-megabyte container so the stalled peer's socket buffers jam
    // after a couple of frames and its queue overflows soon after.
    let mut big = container("doc.xml", 0);
    big.groups[0].segments[0].ciphertext = vec![0xAA; 512 * 1024];

    // The stalled subscriber: subscribes, then never reads again.
    let mut stalled = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
    stalled.subscribe(&["doc.xml"]).unwrap();

    // 16 healthy subscribers, each draining every delivery promptly.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut threads = Vec::new();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    for _ in 0..HEALTHY {
        let done = done_tx.clone();
        let ready = ready_tx.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
            client.subscribe(&["doc.xml"]).unwrap();
            ready.send(()).unwrap();
            let mut last_epoch = 0;
            for _ in 0..PUBLISHES {
                let c = client.next_delivery().expect("healthy delivery");
                assert!(c.epoch > last_epoch, "epoch order preserved per queue");
                last_epoch = c.epoch;
            }
            done.send(last_epoch).unwrap();
        }));
    }
    for _ in 0..HEALTHY {
        ready_rx.recv().unwrap();
    }

    let mut publisher = BrokerClient::connect(addr, PeerRole::Publisher).unwrap();
    let mut max_publish = Duration::ZERO;
    let started = std::time::Instant::now();
    for epoch in 1..=PUBLISHES {
        big.epoch = epoch;
        let t = std::time::Instant::now();
        publisher.publish(&big).expect("publish");
        max_publish = max_publish.max(t.elapsed());
    }
    let total = started.elapsed();

    // Every healthy subscriber saw every epoch, in order.
    for _ in 0..HEALTHY {
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(30)).unwrap(),
            PUBLISHES
        );
    }
    // Publish latency was enqueue-bounded: nowhere near the 30 s write
    // deadline the stalled peer would have charged the old sequential path.
    assert!(
        max_publish < Duration::from_secs(10),
        "slowest publish took {max_publish:?} — fan-out is coupled to the stalled consumer"
    );
    assert!(
        total < Duration::from_secs(25),
        "whole run took {total:?} — fan-out is coupled to the stalled consumer"
    );
    // The stalled subscriber — and only it — was dropped on queue overflow.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while broker.stats().subscribers_dropped < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = broker.stats();
    assert_eq!(stats.subscribers_dropped, 1, "exactly the stalled peer");
    assert_eq!(stats.publishes, PUBLISHES);
    for t in threads {
        t.join().unwrap();
    }
    broker.shutdown();
}

#[test]
fn late_subscriber_gets_latest_retained_container() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    publisher.publish(&container("doc.xml", 1)).unwrap();
    let newest = container("doc.xml", 2);
    publisher.publish(&newest).unwrap();

    // The broker retains only the latest epoch.
    let mut late = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    late.subscribe(&["doc.xml"]).unwrap();
    assert_eq!(late.next_delivery().unwrap(), newest);

    let configs = publisher.list_configs().unwrap();
    assert_eq!(configs.len(), 1);
    assert_eq!(configs[0].document_name, "doc.xml");
    assert_eq!(configs[0].epoch, 2);
    assert_eq!(configs[0].config_ids, vec![0]);
    broker.shutdown();
}

#[test]
fn garbage_connection_is_isolated_from_healthy_ones() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut healthy = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    healthy.subscribe::<&str>(&[]).unwrap();

    // A peer spraying garbage gets an Error frame and a closed socket…
    let mut evil = TcpStream::connect(broker.addr()).unwrap();
    evil.write_all(&(8u32).to_be_bytes()).unwrap();
    evil.write_all(b"\xde\xad\xbe\xef\xde\xad\xbe\xef").unwrap();
    match read_frame(&mut evil) {
        Ok(Frame::Error { message }) => assert!(message.contains("malformed")),
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut evil), Err(NetError::Closed)));

    // …and a peer speaking broker-only frames likewise.
    let mut confused = TcpStream::connect(broker.addr()).unwrap();
    write_frame(
        &mut confused,
        &Frame::Ack {
            epoch: 0,
            fanout: 0,
        },
    )
    .unwrap();
    assert!(matches!(read_frame(&mut confused), Ok(Frame::Error { .. })));

    // The broker keeps serving everyone else.
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    let c = container("doc.xml", 7);
    assert_eq!(publisher.publish(&c).unwrap().fanout, 1);
    assert_eq!(healthy.next_delivery().unwrap(), c);
    assert!(broker.stats().connections_rejected >= 2);
    broker.shutdown();
}

#[test]
fn oversized_publish_is_rejected_not_fatal() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    // A container whose single field would exceed the field limit fails at
    // the *client's* encode step — the non-panicking encode path.
    let mut huge = container("doc.xml", 1);
    huge.groups[0].segments[0].ciphertext = vec![0; pbcd_docs::wire::MAX_FIELD_LEN + 1];
    assert!(matches!(
        publisher.publish(&huge),
        Err(NetError::Wire(pbcd_docs::WireError::FieldTooLong(_)))
    ));
    // The connection survives an encode failure (nothing was sent).
    assert_eq!(
        publisher.publish(&container("doc.xml", 2)).unwrap().epoch,
        2
    );
    broker.shutdown();
}

#[test]
fn version_mismatch_is_rejected() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(broker.addr()).unwrap();
    // Hand-rolled Hello with a wrong protocol version byte.
    let body = [b'P', b'N', PROTOCOL_VERSION + 1, 1, 0];
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&body).unwrap();
    assert!(matches!(read_frame(&mut stream), Ok(Frame::Error { .. })));
    broker.shutdown();
}

#[test]
fn bye_is_acknowledged_and_subscribers_deregister() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut sub = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    sub.subscribe::<&str>(&[]).unwrap();
    // Deregistration is asynchronous; poll briefly.
    sub.bye().unwrap();
    for _ in 0..100 {
        if broker.subscriber_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(broker.subscriber_count(), 0);

    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    assert_eq!(publisher.publish(&container("d.xml", 1)).unwrap().fanout, 0);
    broker.shutdown();
}

#[test]
fn stale_epoch_cannot_roll_back_retained_state() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    let newest = container("doc.xml", 5);
    publisher.publish(&newest).unwrap();
    // Re-publishing the same epoch is an idempotent retry: accepted.
    publisher.publish(&newest).unwrap();
    // An older epoch (e.g. a replayed pre-revocation container) is refused.
    match publisher.publish(&container("doc.xml", 4)) {
        Err(NetError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::StaleEpoch);
            assert!(detail.contains("stale epoch"));
        }
        other => panic!("expected stale-epoch rejection, got {other:?}"),
    }
    let mut late = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    late.subscribe(&["doc.xml"]).unwrap();
    assert_eq!(late.next_delivery().unwrap().epoch, 5);
    broker.shutdown();
}

#[test]
fn retained_document_cap_bounds_broker_memory() {
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            max_retained_documents: 2,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    publisher.publish(&container("a.xml", 1)).unwrap();
    publisher.publish(&container("b.xml", 1)).unwrap();
    assert_eq!(broker.stats().retained_documents, 2);
    // A third distinct document is rejected.
    match publisher.publish(&container("c.xml", 1)) {
        Err(NetError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::RetentionCap);
            assert!(detail.contains("cap"));
        }
        other => panic!("expected cap rejection, got {other:?}"),
    }
    assert!(broker.retained_container("c.xml").is_none());
    // The gauge reflects the refusal: the retained set did not grow.
    assert_eq!(broker.stats().retained_documents, 2);
    // Updates to already-retained documents still pass.
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    assert_eq!(publisher.publish(&container("a.xml", 2)).unwrap().epoch, 2);
    assert_eq!(broker.stats().retained_documents, 2);
    broker.shutdown();
}

#[test]
fn retained_byte_cap_bounds_broker_memory() {
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            max_retained_bytes: 400,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    // One ~250-byte container fits; a second distinct document would push
    // the total past the byte cap and is refused.
    publisher.publish(&container("a.xml", 1)).unwrap();
    let retained = broker.stats().retained_bytes;
    assert!(
        retained > 0 && retained <= 400,
        "gauge tracks the retained container ({retained} bytes)"
    );
    match publisher.publish(&container("b.xml", 1)) {
        Err(NetError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::RetentionCap);
            assert!(detail.contains("byte cap"));
        }
        other => panic!("expected byte-cap rejection, got {other:?}"),
    }
    // The gauge reflects the refusal: nothing was added.
    assert_eq!(broker.stats().retained_bytes, retained);
    // Replacing the retained container for the same document still works
    // (the replaced bytes are freed from the running total).
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    assert_eq!(publisher.publish(&container("a.xml", 2)).unwrap().epoch, 2);
    assert_eq!(
        broker.stats().retained_bytes,
        retained,
        "same-size replacement keeps the gauge level"
    );
    assert_eq!(broker.stats().retained_documents, 1);
    broker.shutdown();
}

#[test]
fn connection_cap_and_handshake_timeout_protect_the_broker() {
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            max_connections: 1,
            handshake_timeout: Some(Duration::from_millis(150)),
            ..BrokerConfig::default()
        },
    )
    .unwrap();

    // A silent peer occupies the only slot…
    let mut silent = TcpStream::connect(broker.addr()).unwrap();
    // …so the next connection is closed immediately (over cap).
    let mut overflow = TcpStream::connect(broker.addr()).unwrap();
    assert!(
        read_frame(&mut overflow).is_err(),
        "over-cap connection must be closed, not served"
    );

    // The silent peer never completes a frame; the handshake timeout
    // evicts it instead of pinning a broker thread forever.
    assert!(read_frame(&mut silent).is_err(), "silent peer evicted");

    // The freed slot serves a real client normally.
    let mut client = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    client.subscribe::<&str>(&[]).unwrap();
    assert!(broker.stats().connections_rejected >= 1);
    broker.shutdown();
}

/// A broad (empty-filter) subscriber must receive the full retained set on
/// subscribe even when it exceeds the live-queue budget: the replay is
/// sized into the queue at subscribe time, it is not subject to the
/// `subscriber_queue` backpressure bound.
#[test]
fn replay_larger_than_the_live_queue_budget_succeeds() {
    const DOCS: usize = 24;
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            subscriber_queue: 4, // far below the retained count
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    for i in 0..DOCS {
        publisher
            .publish(&container(&format!("doc-{i:02}.xml"), 1))
            .unwrap();
    }

    let mut late = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    late.subscribe::<&str>(&[]).unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..DOCS {
        seen.insert(late.next_delivery().unwrap().document_name);
    }
    assert_eq!(seen.len(), DOCS, "every retained document replayed");
    assert_eq!(broker.stats().subscribers_dropped, 0);
    broker.shutdown();
}

#[test]
fn shutdown_disconnects_clients_and_joins() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let addr = broker.addr();
    let mut sub = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
    sub.subscribe::<&str>(&[]).unwrap();
    broker.shutdown(); // must not hang with a live blocked reader
    assert!(sub.next_delivery().is_err(), "socket was closed");
}
