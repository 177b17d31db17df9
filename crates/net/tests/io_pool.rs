//! Event-driven I/O plane tests: a 1 000-subscriber stress run proving an
//! idle subscription costs a socket + queue slot (not two thread stacks)
//! and that misbehaving consumers are isolated individually, plus
//! shutdown-accounting tests proving the broker joins exactly its pool
//! threads, the registration endpoint joins every handler, and both
//! release every file descriptor. All three read `/proc/self/{task,fd}`,
//! so they are Linux-specific — like the rest of the CI environment.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::{
    Broker, BrokerClient, BrokerConfig, BrokerHandle, PeerRole, RegistrationClient,
    RegistrationServer,
};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `/proc/self/task` and `/proc/self/fd` are process-global, so the
/// tests in this file must not overlap even when the harness runs tests
/// in parallel.
static PROC_SERIAL: Mutex<()> = Mutex::new(());

fn container(doc: &str, epoch: u64, payload: usize) -> BroadcastContainer {
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
                ciphertext: vec![epoch as u8; payload],
            }],
        }],
    }
}

/// Live `pbcd_net` threads in this process, per the kernel's own accounting:
/// the tasks whose `comm` carries the `pbcd-` prefix the net crate gives
/// every thread it spawns. Counting by name keeps libtest's own threads
/// out — another test's thread may start, and park on `PROC_SERIAL`,
/// at any point after a baseline was read.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("pbcd-"))
        .count()
}

/// Open file descriptors in this process (including the readdir's own fd,
/// which cancels out in before/after comparisons).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

/// The `(writer, reader)` I/O-pool thread counts the broker reports in
/// its `broker_{writer,reader}_pool_threads` gauges.
fn io_threads(broker: &BrokerHandle) -> (usize, usize) {
    let snap = broker.metrics();
    let gauge = |name| snap.gauge(name).expect("pool gauge") as usize;
    (
        gauge("broker_writer_pool_threads"),
        gauge("broker_reader_pool_threads"),
    )
}

fn wait_until(deadline: Instant, mut done: impl FnMut() -> bool) -> bool {
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    true
}

/// Fails the test leaving the evidence a triage needs: every live counter
/// (the per-cause drop counters included) and the tail of the trace ring.
fn fail_with_evidence(broker: &BrokerHandle, what: &str) -> ! {
    let events = broker.trace_events();
    let tail = &events[events.len().saturating_sub(48)..];
    panic!(
        "{what}\n--- metrics ---\n{}--- last trace events ---\n{tail:#?}",
        broker.metrics_text()
    );
}

/// The 10k-fan-out scaling contract, exercised at 1k so it fits a test
/// budget: a thousand idle subscriptions must cost O(pool) OS threads,
/// and among ten consumers of a hot topic, one that never reads and one
/// that trickles a byte at a time are dropped — exactly those two — while
/// publish latency stays enqueue-bounded and the healthy eight see every
/// epoch in order.
#[test]
fn thousand_subscribers_pool_threads_and_misbehaving_peer_isolation() {
    let _serial = PROC_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const IDLE_SUBS: usize = 1000;
    const HEALTHY: usize = 8;
    const PUBLISHES: u64 = 16;

    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            // Big enough that an enqueue-coupled publisher would blow the
            // latency assertion below, small enough that the trickling
            // peer's deadline expiry fits the test budget.
            write_timeout: Some(Duration::from_secs(6)),
            subscriber_queue: 4,
            max_connections: 4096,
            max_retained_bytes: 1024 * 1024 * 1024,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let addr = broker.addr();
    let (writers, readers) = io_threads(&broker);
    let threads_before_herd = os_threads();

    // A thousand subscribers on a topic nothing publishes to. Under
    // thread-per-connection each held a handler + writer stack (~2000
    // threads); on the event-driven plane each is a socket plus a pool
    // slot, and the per-connection handler thread exits at handoff.
    let mut idle = Vec::with_capacity(IDLE_SUBS);
    for _ in 0..IDLE_SUBS {
        let mut client = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
        client.subscribe(&["idle.xml"]).unwrap();
        idle.push(client);
    }
    assert_eq!(broker.subscriber_count(), IDLE_SUBS);

    // Handler threads unwind asynchronously after handing their socket to
    // the reader pool; give the tail a moment, then demand O(pool).
    let herd_deadline = Instant::now() + Duration::from_secs(30);
    assert!(
        wait_until(herd_deadline, || {
            os_threads() <= threads_before_herd + writers + readers + 16
        }),
        "{IDLE_SUBS} idle subscribers cost {} extra OS threads (pool is {writers}+{readers}) — \
         thread-per-connection is back",
        os_threads() - threads_before_herd,
    );

    // The hot-topic consumers: one stalled (never reads after subscribing),
    // one trickling a byte every 20 ms — far too slow to land a half-MiB
    // frame inside the write deadline — and eight healthy readers.
    let mut stalled = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
    stalled.subscribe(&["doc.xml"]).unwrap();

    let trickle_stream = {
        let mut client = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
        client.subscribe(&["doc.xml"]).unwrap();
        client.into_stream()
    };
    // Once the broker has dropped the trickler, the test flips `drain` so
    // the thread empties its receive buffer at full speed and observes the
    // close — at one byte per 20 ms that last drain would take hours.
    let drain = Arc::new(AtomicBool::new(false));
    let trickler = {
        let drain = Arc::clone(&drain);
        std::thread::spawn(move || {
            let mut stream = trickle_stream;
            let mut byte = [0u8; 1];
            let mut bulk = vec![0u8; 256 * 1024];
            loop {
                let draining = drain.load(Ordering::Relaxed);
                let buf: &mut [u8] = if draining { &mut bulk } else { &mut byte };
                match stream.read(buf) {
                    Ok(1..) => {
                        if !draining {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                    // Clean close or reset: the broker dropped us, as it must.
                    Ok(0) | Err(_) => return,
                }
            }
        })
    };

    // Each healthy reader reports every epoch it holds (index, epoch), or
    // the error that ended its stream; its first report is epoch 0, sent
    // once subscribed.
    let (progress_tx, progress_rx) = std::sync::mpsc::channel();
    let mut healthy = Vec::new();
    for reader in 0..HEALTHY {
        let progress = progress_tx.clone();
        healthy.push(std::thread::spawn(move || {
            let mut client = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
            client.subscribe(&["doc.xml"]).unwrap();
            let mut last_epoch = 0;
            let _ = progress.send((reader, Ok(last_epoch)));
            while last_epoch < PUBLISHES {
                let report = client.next_delivery().map(|c| c.epoch);
                let _ = progress.send((reader, report.clone()));
                match report {
                    Ok(epoch) => {
                        assert!(epoch > last_epoch, "per-subscriber total order");
                        last_epoch = epoch;
                    }
                    Err(_) => return,
                }
            }
        }));
    }
    // Blocks until every healthy reader holds `epoch`. A reader that
    // loses its stream fails the test at once, with the evidence.
    let mut held = [None::<u64>; HEALTHY];
    let mut wait_until_all_hold = |epoch: u64| {
        while !held.iter().all(|h| matches!(h, Some(h) if *h >= epoch)) {
            match progress_rx.recv_timeout(Duration::from_secs(60)) {
                Ok((reader, Ok(e))) => held[reader] = Some(e),
                Ok((reader, Err(e))) => fail_with_evidence(
                    &broker,
                    &format!("healthy reader {reader} lost its stream at {held:?}: {e}"),
                ),
                Err(e) => fail_with_evidence(
                    &broker,
                    &format!("healthy readers stuck at {held:?} waiting for {epoch}: {e}"),
                ),
            }
        }
    };
    wait_until_all_hold(0);

    // Publish half-MiB containers so the misbehaving peers' socket
    // buffers jam after a couple of frames. Publish latency must stay
    // enqueue-bounded: the stalled peer charges its own pool slot for the
    // write deadline, never the publisher. The publisher is paced on the
    // slowest healthy reader (epoch e goes out once all eight hold e − 2):
    // unpaced, a loaded host can starve a writer shard for a few publishes
    // and `subscriber_queue: 4` then drops its healthy readers as the slow
    // consumers they momentarily are. The stalled and trickling peers
    // never report, so pacing leaves them jammed.
    let mut publisher = BrokerClient::connect(addr, PeerRole::Publisher).unwrap();
    let mut max_publish = Duration::ZERO;
    for epoch in 1..=PUBLISHES {
        wait_until_all_hold(epoch.saturating_sub(2));
        let start = Instant::now();
        publisher
            .publish(&container("doc.xml", epoch, 512 * 1024))
            .unwrap();
        max_publish = max_publish.max(start.elapsed());
    }
    assert!(
        max_publish < Duration::from_secs(3),
        "publish took {max_publish:?} — latency is coupled to the 6 s write deadline"
    );

    wait_until_all_hold(PUBLISHES);
    for t in healthy {
        t.join().unwrap();
    }

    // Exactly the two misbehaving consumers are dropped: the stalled one
    // on queue overflow, the trickler on overflow or deadline expiry —
    // never a healthy reader, never an idle bystander.
    let drop_deadline = Instant::now() + Duration::from_secs(20);
    assert!(
        wait_until(drop_deadline, || broker.stats().subscribers_dropped >= 2),
        "misbehaving consumers still connected: {} dropped",
        broker.stats().subscribers_dropped,
    );
    assert_eq!(broker.stats().subscribers_dropped, 2);
    drain.store(true, Ordering::Relaxed);
    trickler.join().unwrap();

    // The eight healthy sockets are closed by now, but the broker notices
    // a closed peer only on its next reaper sweep: wait for the count to
    // settle on the herd, which must not shrink below it either.
    let reap_deadline = Instant::now() + Duration::from_secs(20);
    assert!(
        wait_until(reap_deadline, || broker.subscriber_count() <= IDLE_SUBS),
        "closed healthy sockets never reaped: {} subscribers",
        broker.subscriber_count(),
    );
    assert_eq!(broker.subscriber_count(), IDLE_SUBS, "idle herd untouched");
    drop(idle);
    drop(stalled);
    broker.shutdown();
}

/// Shutdown accounting: the broker runs exactly its configured M+R pool
/// threads (plus the accept loop), joins every one of them on shutdown,
/// and releases every file descriptor it duped for pool slots and reader
/// connections.
#[test]
fn shutdown_joins_exact_pool_threads_and_releases_fds() {
    let _serial = PROC_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SUBS: usize = 32;

    let threads_before = os_threads();
    let fds_before = open_fds();

    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            writer_pool_threads: 3,
            reader_pool_threads: 2,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(io_threads(&broker), (3, 2));
    let addr = broker.addr();

    let mut subs = Vec::new();
    for _ in 0..SUBS {
        let mut client = BrokerClient::connect(addr, PeerRole::Subscriber).unwrap();
        client.subscribe(&["doc.xml"]).unwrap();
        subs.push(client);
    }
    let mut publisher = BrokerClient::connect(addr, PeerRole::Publisher).unwrap();
    publisher.publish(&container("doc.xml", 1, 4096)).unwrap();
    for client in &mut subs {
        assert_eq!(client.next_delivery().unwrap().epoch, 1);
    }

    // While running: at least accept + 3 writers + 2 readers beyond the
    // baseline (transient handler threads may add a few more).
    assert!(
        os_threads() >= threads_before + 1 + 3 + 2,
        "pool threads not running"
    );

    broker.shutdown();
    drop(subs);
    drop(publisher);

    // Shutdown joins the accept loop, both pools and any leftover handler
    // threads — the kernel's thread count returns to the pre-bind
    // baseline, so nothing leaked and nothing was left detached.
    let deadline = Instant::now() + Duration::from_secs(10);
    assert!(
        wait_until(deadline, || os_threads() <= threads_before),
        "{} threads outlive shutdown",
        os_threads() - threads_before,
    );

    // Every fd goes too: listener, per-connection sockets, the writer
    // pool's dup'd streams and the reader pool's adopted ones.
    let deadline = Instant::now() + Duration::from_secs(10);
    assert!(
        wait_until(deadline, || open_fds() <= fds_before),
        "{} fds outlive shutdown",
        open_fds() - fds_before,
    );
}

/// The registration endpoint's shutdown accounting: with sixteen clients
/// each mid-session (one call served, the connection open and its handler
/// thread parked reading the next request), `shutdown` disconnects every
/// client and joins the accept thread and every handler, and the server's
/// sockets all close.
#[test]
fn registration_shutdown_joins_every_handler_and_releases_fds() {
    let _serial = PROC_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 16;

    let threads_before = os_threads();
    let fds_before = open_fds();

    let server = RegistrationServer::bind("127.0.0.1:0", |req: &[u8]| req.to_vec()).unwrap();
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut client = RegistrationClient::connect(server.addr()).unwrap();
        assert_eq!(client.call(&[i as u8]).unwrap(), [i as u8]);
        clients.push(client);
    }
    assert!(
        os_threads() >= threads_before + 1 + CLIENTS,
        "accept and handler threads not running"
    );

    // Every handler is parked in a read with a 60 s idle timeout: only the
    // shutdown sweep, not the timeout, may end them in time.
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown waited {:?} for parked handlers",
        started.elapsed(),
    );
    for client in &mut clients {
        assert!(client.call(b"late").is_err(), "client outlived shutdown");
    }
    drop(clients);

    let deadline = Instant::now() + Duration::from_secs(10);
    assert!(
        wait_until(deadline, || os_threads() <= threads_before),
        "{} threads outlive shutdown",
        os_threads() - threads_before,
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    assert!(
        wait_until(deadline, || open_fds() <= fds_before),
        "{} fds outlive shutdown",
        open_fds() - fds_before,
    );
}
