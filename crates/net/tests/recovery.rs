//! Crash-recovery fault injection for the durable retention store.
//!
//! The central property: for a log truncated at *any* byte boundary,
//! recovery never panics, recovers exactly the longest valid prefix of
//! whole records, and physically truncates the torn tail — and a broker
//! restarted from such a log replays the identical retained set to a late
//! joiner over real TCP.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::store::encode_record;
use pbcd_net::{
    Broker, BrokerClient, BrokerConfig, FsyncPolicy, NetError, PeerRole, RetentionStore,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A collision-free scratch path (no tempfile crate in the workspace):
/// pid + per-process counter under the system temp dir, cleaned by the
/// returned guard.
fn scratch_log(tag: &str) -> (PathBuf, ScratchGuard) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "pbcd-recovery-{tag}-{}-{n}.log",
        std::process::id()
    ));
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

fn record_for(doc: &str, epoch: u64) -> Vec<u8> {
    let body = pbcd_net::frame::deliver_body(&container(doc, epoch).encode().unwrap());
    encode_record(doc, epoch, &body).unwrap()
}

/// Truncate the log at every byte boundary of the final record: recovery
/// must never panic, must recover exactly the records fully before the
/// cut, and must shave the torn tail off the file.
#[test]
fn truncation_at_every_byte_boundary_of_the_final_record() {
    let records = [
        record_for("a.xml", 1),
        record_for("b.xml", 1),
        record_for("a.xml", 2),
    ];
    let prefix: Vec<u8> = records[..2].concat();
    let full: Vec<u8> = records.concat();

    for cut in prefix.len()..full.len() {
        let (path, _guard) = scratch_log("boundary");
        std::fs::write(&path, &full[..cut]).unwrap();
        let store = RetentionStore::open(&path, 4, u64::MAX, FsyncPolicy::Off).unwrap();
        let report = store.recovery();
        assert_eq!(
            report.records_recovered, 2,
            "cut at {cut}: exactly the longest valid prefix"
        );
        assert_eq!(report.truncated_bytes, (cut - prefix.len()) as u64);
        assert_eq!(store.newest_epoch("a.xml"), Some(1));
        assert_eq!(store.newest_epoch("b.xml"), Some(1));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            prefix.len() as u64,
            "torn tail physically removed"
        );
        drop(store);
    }

    // The untruncated log recovers everything, with nothing shaved off.
    let (path, _guard) = scratch_log("intact");
    std::fs::write(&path, &full).unwrap();
    let store = RetentionStore::open(&path, 4, u64::MAX, FsyncPolicy::Off).unwrap();
    assert_eq!(store.recovery().records_recovered, 3);
    assert_eq!(store.recovery().truncated_bytes, 0);
    assert_eq!(store.newest_epoch("a.xml"), Some(2));
}

/// Logs written before the frame header carried one version for every
/// kind still recover: `GOLDEN_RECORD` is one
/// `encode_record(doc, epoch, deliver_body(container))` captured from
/// commit 4e4caec (the parent of that change). This build reproduces it
/// byte for byte and `RetentionStore::open` recovers it.
#[test]
fn a_log_record_written_by_the_previous_release_still_recovers() {
    const GOLDEN_RECORD: &str = "\
        50424c3100000089847026a900000005612e786d6c0000000000000007504e0104\
        5042434400000001000000000000000700000005612e786d6c0000001d3c723e3c\
        706263642d7365676d656e742069643d2230222f3e3c2f723e0000000100000003\
        00000008abababababababab0000000100000000000000065265636f7264000000\
        105c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c";
    let golden: Vec<u8> = (0..GOLDEN_RECORD.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_RECORD[i..i + 2], 16).unwrap())
        .collect();

    let c = BroadcastContainer {
        epoch: 7,
        document_name: "a.xml".into(),
        skeleton_xml: "<r><pbcd-segment id=\"0\"/></r>".into(),
        groups: vec![EncryptedGroup {
            config_id: 3,
            key_info: vec![0xAB; 8],
            segments: vec![EncryptedSegment {
                segment_id: 0,
                tag: "Record".into(),
                ciphertext: vec![0x5C; 16],
            }],
        }],
    };
    let body = pbcd_net::frame::deliver_body(&c.encode().unwrap());
    assert_eq!(encode_record("a.xml", 7, &body).unwrap(), golden);

    let (path, _guard) = scratch_log("golden");
    std::fs::write(&path, &golden).unwrap();
    let store = RetentionStore::open(&path, 4, u64::MAX, FsyncPolicy::Off).unwrap();
    assert_eq!(store.recovery().records_recovered, 1);
    assert_eq!(store.recovery().truncated_bytes, 0);
    assert_eq!(store.newest_epoch("a.xml"), Some(7));
    assert_eq!(**store.newest_body("a.xml").unwrap(), body);
}

/// Corruption mid-log bounds recovery at the corrupt record: the valid
/// records *after* it are discarded too — "longest valid prefix", not
/// "every salvageable record" (resynchronizing past corruption could
/// resurrect records an operator intentionally truncated away).
#[test]
fn corruption_mid_log_truncates_everything_after_it() {
    let (path, _guard) = scratch_log("midlog");
    let good = [record_for("a.xml", 1), record_for("b.xml", 1)].concat();
    let mut log = good.clone();
    let mut corrupt = record_for("c.xml", 1);
    corrupt[20] ^= 0xFF; // flip a payload byte: checksum mismatch
    log.extend_from_slice(&corrupt);
    log.extend_from_slice(&record_for("d.xml", 1)); // valid but unreachable
    std::fs::write(&path, &log).unwrap();

    let store = RetentionStore::open(&path, 4, u64::MAX, FsyncPolicy::Off).unwrap();
    assert_eq!(store.recovery().records_recovered, 2);
    assert!(store.newest_epoch("c.xml").is_none());
    assert!(store.newest_epoch("d.xml").is_none());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), good.len() as u64);
}

/// Arbitrary garbage — including an empty file — never panics recovery.
#[test]
fn garbage_logs_never_panic_recovery() {
    for garbage in [
        Vec::new(),
        vec![0u8; 1],
        vec![0xFF; 11],
        b"PBL1".to_vec(),
        [b"PBL1".as_slice(), &[0xFF; 200]].concat(),
        vec![0x41; 4096],
    ] {
        let (path, _guard) = scratch_log("garbage");
        std::fs::write(&path, &garbage).unwrap();
        let store = RetentionStore::open(&path, 2, u64::MAX, FsyncPolicy::Off).unwrap();
        assert_eq!(store.recovery().records_recovered, 0);
        assert_eq!(store.recovery().truncated_bytes, garbage.len() as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }
}

/// A store that recovered from a torn log keeps working: appends land on
/// the clean boundary and a second recovery sees old + new records.
#[test]
fn appends_after_recovery_land_on_a_clean_boundary() {
    let (path, _guard) = scratch_log("resume");
    let mut log = record_for("a.xml", 1);
    log.extend_from_slice(&record_for("a.xml", 2)[..9]); // torn tail
    std::fs::write(&path, &log).unwrap();

    let mut store = RetentionStore::open(&path, 4, u64::MAX, FsyncPolicy::Off).unwrap();
    assert_eq!(store.recovery().records_recovered, 1);
    let body = pbcd_net::frame::deliver_body(&container("a.xml", 3).encode().unwrap());
    let summary = pbcd_net::ConfigSummary {
        document_name: "a.xml".into(),
        epoch: 3,
        config_ids: vec![0],
        size_bytes: (body.len() - 4) as u64,
    };
    store.retain(summary, std::sync::Arc::new(body)).unwrap();
    drop(store);

    let store = RetentionStore::open(&path, 4, u64::MAX, FsyncPolicy::Off).unwrap();
    assert_eq!(store.recovery().records_recovered, 2);
    assert_eq!(store.newest_epoch("a.xml"), Some(3));
    assert_eq!(store.history("a.xml", 8).len(), 2);
}

/// End-to-end over real TCP: a broker "crashes" (drops without a clean
/// close), its log grows a torn tail, and the restarted broker replays the
/// identical retained set — documents, epochs and exact container bytes —
/// to a late joiner.
#[test]
fn restarted_broker_replays_identical_retained_set_over_tcp() {
    let (path, _guard) = scratch_log("tcp");
    let config = BrokerConfig {
        store_path: Some(path.clone()),
        fsync: FsyncPolicy::Off,
        history_depth: 2,
        ..BrokerConfig::default()
    };

    // First life: publish two docs, two epochs each.
    let broker = Broker::bind_with("127.0.0.1:0", config.clone()).unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    let published = [
        container("ehr.xml", 1),
        container("ehr.xml", 2),
        container("news.xml", 7),
    ];
    for c in &published {
        publisher.publish(c).unwrap();
    }
    let summaries_before = {
        let mut c = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
        c.list_configs().unwrap()
    };
    // Crash: tear the broker down without a goodbye, then damage the log
    // tail the way a mid-append power cut would.
    drop(publisher);
    broker.shutdown();
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"PBL1\x00\x00\x01").unwrap(); // torn header
    }

    // Second life: recover and serve a late joiner the full history.
    let broker = Broker::bind_with("127.0.0.1:0", config).unwrap();
    assert_eq!(broker.recovery().records_recovered, 3);
    assert!(broker.recovery().truncated_bytes > 0);
    let stats = broker.stats();
    assert_eq!(stats.retained_documents, 2);
    assert_eq!(stats.records_recovered, 3);

    let mut late = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    late.subscribe_with_history::<&str>(&[], 8).unwrap();
    let mut replayed = Vec::new();
    for _ in 0..published.len() {
        replayed.push(late.next_delivery().unwrap());
    }
    // BTreeMap order (doc name), oldest epoch first within a doc.
    assert_eq!(replayed, published.to_vec());
    assert_eq!(
        {
            let mut c = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
            c.list_configs().unwrap()
        },
        summaries_before,
        "recovered summaries are byte-identical to the pre-crash ones"
    );
    // No phantom delivery beyond the retained set.
    late.set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .unwrap();
    assert!(matches!(late.next_delivery(), Err(NetError::Io { .. })));
    broker.shutdown();
}

/// Compaction keeps only live records: after epochs far beyond the history
/// depth, a cap-sized log is rewritten, survives a reopen, and still
/// replays the correct newest window.
#[test]
fn compaction_rewrites_live_records_and_survives_reopen() {
    let (path, _guard) = scratch_log("compact");
    let record_len = record_for("doc.xml", 1).len() as u64;
    let mut store = RetentionStore::open(&path, 2, record_len * 4, FsyncPolicy::Off).unwrap();
    for epoch in 1..=20u64 {
        let body = pbcd_net::frame::deliver_body(&container("doc.xml", epoch).encode().unwrap());
        let summary = pbcd_net::ConfigSummary {
            document_name: "doc.xml".into(),
            epoch,
            config_ids: vec![0],
            size_bytes: (body.len() - 4) as u64,
        };
        store.retain(summary, std::sync::Arc::new(body)).unwrap();
    }
    assert!(
        store.compactions() >= 1,
        "cap-sized log must have compacted"
    );
    assert!(
        store.log_bytes() <= record_len * 8,
        "log stays near the live set, not 20 epochs deep"
    );
    drop(store);

    let store = RetentionStore::open(&path, 2, record_len * 4, FsyncPolicy::Off).unwrap();
    assert_eq!(store.newest_epoch("doc.xml"), Some(20));
    assert_eq!(store.history("doc.xml", 8).len(), 2, "depth-2 live window");
}
