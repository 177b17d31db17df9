//! The stats frame end to end: a live broker is scraped over its socket
//! and the exposition carries the full metric set — publish→ack latency
//! percentiles, the queue-depth gauge, drop counters by cause and the
//! store append/fsync timings — while never leaking retained plaintext.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::{Broker, BrokerClient, BrokerConfig, FsyncPolicy, PeerRole, TraceKind};
use std::time::{Duration, Instant};

fn container(name: &str, epoch: u64, marker: &[u8]) -> BroadcastContainer {
    BroadcastContainer {
        epoch,
        document_name: name.to_string(),
        skeleton_xml: format!("<r><pbcd-segment id=\"0\"/><!--{epoch}--></r>"),
        groups: vec![EncryptedGroup {
            config_id: 0,
            key_info: vec![0xAB; 32],
            segments: vec![EncryptedSegment {
                segment_id: 0,
                tag: "Record".into(),
                ciphertext: marker.to_vec(),
            }],
        }],
    }
}

/// Every metric the acceptance criteria name must appear in a live scrape,
/// with the counters/histograms reflecting real traffic.
#[test]
fn live_broker_scrape_contains_full_metric_set() {
    let dir = std::env::temp_dir().join(format!("pbcd-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("stats-scrape.log");
    let _ = std::fs::remove_file(&log);
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            store_path: Some(log.clone()),
            fsync: FsyncPolicy::PerPublish,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let addr = broker.addr();

    let mut sub = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
    sub.subscribe(&["doc-a"]).unwrap();

    let mut publisher = BrokerClient::connect(addr, PeerRole::Publisher).unwrap();
    let secret = b"super-secret-payload";
    for epoch in 1..=5u64 {
        let receipt = publisher
            .publish(&container("doc-a", epoch, secret))
            .unwrap();
        assert_eq!(receipt.epoch, epoch);
    }
    for _ in 0..5 {
        let got = sub.next_delivery().unwrap();
        assert_eq!(got.document_name, "doc-a");
    }

    // Scrape over the socket, from a fresh connection (any peer may ask).
    // The writer shard accounts a delivery after its socket write, so the
    // subscriber can hold frame 5 before the broker has counted it:
    // re-scrape until all five are counted and traced.
    let mut scraper = BrokerClient::connect(addr, PeerRole::Publisher).unwrap();
    let delivers_traced = || {
        let events = broker.trace_events();
        events
            .iter()
            .filter(|e| e.kind == TraceKind::Deliver)
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = scraper.stats().unwrap();
        let counted = text.contains("broker_deliveries_total 5") && delivers_traced() == 5;
        if counted || Instant::now() >= deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    // Counters and gauges the acceptance criteria name.
    assert!(text.contains("broker_publishes_total 5"), "{text}");
    assert!(text.contains("broker_deliveries_total 5"), "{text}");
    assert!(text.contains("broker_queue_depth "), "{text}");
    assert!(text.contains("broker_retained_documents 1"), "{text}");
    // Drop counters by cause are registered eagerly: present even at zero.
    for cause in ["queue_overflow", "write_failed", "replay_overflow"] {
        assert!(
            text.contains(&format!(
                "broker_subscriber_drops_total{{cause=\"{cause}\"}} 0"
            )),
            "missing drop cause {cause} in:\n{text}"
        );
    }
    // Publish→ack latency percentiles with five recorded points.
    assert!(
        text.contains("broker_publish_ack_ns{quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(
        text.contains("broker_publish_ack_ns{quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(text.contains("broker_publish_ack_ns_count 5"), "{text}");
    // Store timings: five durable appends, each fsynced per publish.
    assert!(text.contains("store_append_ns_count 5"), "{text}");
    assert!(text.contains("store_fsync_ns_count 5"), "{text}");
    assert!(text.contains("store_fsync_ns{quantile=\"0.9\"}"), "{text}");

    // Threat model: the exposition must not leak the retained payload (in
    // any obvious encoding) nor the document name.
    let hex: String = secret.iter().map(|b| format!("{b:02x}")).collect();
    assert!(!text.contains(std::str::from_utf8(secret).unwrap()));
    assert!(!text.contains(&hex));
    assert!(!text.contains("doc-a"), "document name leaked:\n{text}");

    // The in-process views agree with the wire view.
    let stats = broker.stats();
    assert_eq!(stats.publishes, 5);
    assert_eq!(stats.retained_documents, 1);
    let snap = broker.metrics();
    assert_eq!(snap.counter("broker_publishes_total"), Some(5));
    let ack = snap.histogram("broker_publish_ack_ns").unwrap();
    assert_eq!(ack.count, 5);
    assert!(ack.p50 > 0 && ack.p50 <= ack.p99);

    // Trace ring saw the wire-level story: connects, publishes, delivers.
    let events = broker.trace_events();
    let count = |k: TraceKind| events.iter().filter(|e| e.kind == k).count();
    assert!(count(TraceKind::Connect) >= 3);
    assert_eq!(count(TraceKind::Publish), 5);
    assert_eq!(count(TraceKind::Deliver), 5);
    assert!(count(TraceKind::Subscribe) >= 1);
    // Publish events carry real epochs and durations.
    let publish_epochs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Publish)
        .map(|e| e.epoch)
        .collect();
    assert_eq!(publish_epochs, vec![1, 2, 3, 4, 5]);

    drop(publisher);
    drop(sub);
    drop(scraper);
    broker.shutdown();
    let _ = std::fs::remove_file(&log);
}

/// `BrokerStats` is a view over the same single-snapshot read path as the
/// exposition: repeated snapshots under concurrent publishing never show a
/// publish's retained bytes without its `publishes` increment.
#[test]
fn stats_snapshot_is_consistent_under_concurrent_publishing() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let addr = broker.addr();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut publisher = BrokerClient::connect(addr, PeerRole::Publisher).unwrap();
            for epoch in 1..=200u64 {
                publisher
                    .publish(&container("hammer", epoch, b"payload"))
                    .unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let mut last = 0u64;
        while !stop.load(std::sync::atomic::Ordering::SeqCst) {
            let stats = broker.stats();
            // Monotone, and retained state implies the publish was counted.
            assert!(stats.publishes >= last);
            if stats.retained_bytes > 0 {
                assert!(stats.publishes >= 1);
            }
            last = stats.publishes;
        }
    });
    assert_eq!(broker.stats().publishes, 200);
    broker.shutdown();
}

/// A scrape needs no prior traffic, and the metric registry names stay
/// stable (they are part of the scrape API).
#[test]
fn scrape_of_idle_broker_exposes_all_zero_metric_set() {
    let broker = Broker::bind("127.0.0.1:0").unwrap();
    let mut client = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    let text = client.stats().unwrap();
    for name in [
        "broker_publishes_total 0",
        "broker_publishes_rejected_total 0",
        "broker_deliveries_total 0",
        "broker_subscribers_dropped_total 0",
        "broker_connections_rejected_total 0",
        "broker_queue_depth 0",
        "broker_retained_documents 0",
        "broker_retained_bytes 0",
        "broker_log_bytes 0",
        "broker_publish_ack_ns_count 0",
        "broker_enqueue_to_write_ns_count 0",
        "store_append_ns_count 0",
        "store_fsync_ns_count 0",
        "store_compaction_ns_count 0",
        "store_recovery_scan_ns_count 0",
    ] {
        assert!(text.contains(name), "missing {name:?} in:\n{text}");
    }
    broker.shutdown();
}
